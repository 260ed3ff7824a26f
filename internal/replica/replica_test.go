package replica

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
	"sihtm/internal/netchaos"
	"sihtm/internal/rng"
	"sihtm/internal/wal"
	"sihtm/internal/wire"
)

const testHeapWords = 4096

// testLeader is a WAL + publisher serving TReplSub over a real
// listener — the leader's streaming half without the full server.
type testLeader struct {
	log  *wal.Log
	path string
	pub  *Publisher
	ln   net.Listener
	stop chan struct{}
}

// newTestLeader starts a leader whose publisher maps sequences to trace
// ids with traceOf (nil = untraced).
func newTestLeader(t *testing.T, traceOf func(uint64) uint64) *testLeader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "leader.log")
	l, err := wal.Create(path, wal.Config{}) // daemon, fsync per batch
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &testLeader{log: l, path: path, pub: NewPublisher(path, l, traceOf), ln: ln, stop: make(chan struct{})}
	go tl.serve()
	t.Cleanup(func() {
		close(tl.stop)
		ln.Close()
		l.Close()
	})
	return tl
}

func (tl *testLeader) serve() {
	for {
		c, err := tl.ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			_, typ, payload, _, err := wire.ReadFrame(c, nil)
			if err != nil || typ != wire.TReplSub {
				return
			}
			from, err := wire.ParseReplSub(payload)
			if err != nil {
				return
			}
			c.SetWriteDeadline(time.Time{})
			tl.pub.Stream(c, 1, from, tl.stop)
		}(c)
	}
}

// commit appends one deterministic record and returns its seq.
func (tl *testLeader) commit(t *testing.T, model []uint64, r *rng.Rand) uint64 {
	t.Helper()
	n := 1 + r.Intn(6)
	entries := make([]footprint.Entry, n)
	for i := range entries {
		a := r.Intn(testHeapWords)
		v := r.Uint64()
		entries[i] = footprint.Entry{Addr: memsim.Addr(a), Val: v}
		model[a] = v
	}
	return tl.log.Append(entries)
}

func newTestFollower(t *testing.T, tl *testLeader, dial func() (net.Conn, error)) *Follower {
	t.Helper()
	if dial == nil {
		addr := tl.ln.Addr().String()
		dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	f, err := NewFollower(FollowerConfig{
		Heap:        memsim.NewHeap(testHeapWords),
		Dial:        dial,
		ReadTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// waitApplied waits until seq is durable on the leader, then until the
// follower has applied it.
func waitApplied(t *testing.T, tl *testLeader, f *Follower, seq uint64, chaos *netchaos.Dialer) {
	t.Helper()
	tl.log.WaitDurable(seq)
	if !f.WaitWatermark(seq, 20*time.Second) {
		t.Fatalf("watermark %d never reached %d (reconnects %d, cuts %d)",
			f.Watermark(), seq, f.Reconnects(), chaos.Cuts())
	}
}

// walRecord returns the bytes a leader's log holds for one record:
// what its publisher ships.
func walRecord(t *testing.T, seq uint64, entries ...footprint.Entry) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "record.log")
	l, err := wal.Create(path, wal.Config{NoDaemon: true, FirstSeq: seq})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(entries)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkHeap(t *testing.T, f *Follower, model []uint64) {
	t.Helper()
	f.RLock()
	defer f.RUnlock()
	for a, v := range model {
		if got := f.heap.Load(memsim.Addr(a)); got != v {
			t.Fatalf("addr %d: heap %d, model %d", a, got, v)
		}
	}
}

// TestStreamAndApply: records appended on the leader arrive, in order,
// on the follower; the watermark tracks the durable frontier.
func TestStreamAndApply(t *testing.T) {
	tl := newTestLeader(t, nil)
	model := make([]uint64, testHeapWords)
	r := rng.New(11)
	f := newTestFollower(t, tl, nil)
	f.Start()

	var last uint64
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			last = tl.commit(t, model, r)
		}
		tl.log.WaitDurable(last)
		if !f.WaitWatermark(last, 5*time.Second) {
			t.Fatalf("round %d: watermark %d never reached %d", round, f.Watermark(), last)
		}
		checkHeap(t, f, model)
	}
	if f.Applied() != last {
		t.Fatalf("applied %d records, want %d", f.Applied(), last)
	}
	if lag := f.LeaderSeq(); lag < last {
		t.Fatalf("leader frontier %d never advertised (last %d)", lag, last)
	}
}

// TestChaosResume: the stream runs through a seeded chaos dialer that
// cuts connections, tears frames and refuses dials in partition
// windows; the follower must reconnect, resume from its watermark and
// converge to the exact leader state — the satellite's survivability
// requirement.
func TestChaosResume(t *testing.T) {
	tl := newTestLeader(t, nil)
	model := make([]uint64, testHeapWords)
	r := rng.New(23)

	chaos := netchaos.NewDialer(tl.ln.Addr().String(), netchaos.Config{
		Seed:        99,
		CutAfterMin: 2, CutAfterMax: 30,
		TearProb:     0.5,
		PartitionMin: 1, PartitionMax: 4,
	})
	f := newTestFollower(t, tl, chaos.Dial)
	f.Start()

	var last uint64
	for i := 0; i < 600; i++ {
		last = tl.commit(t, model, r)
		if i%40 == 0 {
			waitApplied(t, tl, f, last, chaos) // let the stream interleave with the cuts
		}
	}
	waitApplied(t, tl, f, last, chaos)
	checkHeap(t, f, model)
	if chaos.Cuts() == 0 {
		t.Fatal("chaos schedule never cut the stream; the test proved nothing")
	}
	if f.Reconnects() == 0 {
		t.Fatal("follower never reconnected")
	}
}

// TestPromoteCatchUp: kill the stream early, then promote with the
// leader's log on disk — the follower must catch up to the full valid
// prefix (zero acknowledged loss) and report itself promoted.
func TestPromoteCatchUp(t *testing.T) {
	tl := newTestLeader(t, nil)
	model := make([]uint64, testHeapWords)
	r := rng.New(31)

	// A chaos dialer that dies quickly keeps the follower behind.
	chaos := netchaos.NewDialer(tl.ln.Addr().String(), netchaos.Config{
		Seed:        5,
		CutAfterMin: 1, CutAfterMax: 6,
		PartitionMin: 2, PartitionMax: 6,
	})
	f := newTestFollower(t, tl, chaos.Dial)
	f.Start()

	var last uint64
	for i := 0; i < 300; i++ {
		last = tl.commit(t, model, r)
	}
	tl.log.WaitDurable(last)

	wm, err := f.Promote(tl.path)
	if err != nil {
		t.Fatal(err)
	}
	if wm < last {
		t.Fatalf("promoted at watermark %d, leader durable %d", wm, last)
	}
	if !f.Promoted() {
		t.Fatal("follower not marked promoted")
	}
	checkHeap(t, f, model)
}

// TestCatchUpMutilation is the crashtest-style satellite: the leader's
// log is truncated and bit-flipped at random points, and follower
// catch-up from the damaged file must yield exactly a prefix of the
// commit history — never divergence, never a misapplied record.
func TestCatchUpMutilation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "leader.log")
	l, err := wal.Create(path, wal.Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	const records = 80
	r := rng.New(63)
	// prefixes[k] is the model heap after commits 1..k.
	prefixes := make([][]uint64, records+1)
	prefixes[0] = make([]uint64, testHeapWords)
	for k := 1; k <= records; k++ {
		model := append([]uint64(nil), prefixes[k-1]...)
		n := 1 + r.Intn(5)
		entries := make([]footprint.Entry, n)
		for i := range entries {
			a := r.Intn(testHeapWords)
			v := r.Uint64()
			entries[i] = footprint.Entry{Addr: memsim.Addr(a), Val: v}
			model[a] = v
		}
		l.Append(entries)
		prefixes[k] = model
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	matchesPrefix := func(heap *memsim.Heap, wm uint64) bool {
		if wm > records {
			return false
		}
		for a, v := range prefixes[wm] {
			if heap.Load(memsim.Addr(a)) != v {
				return false
			}
		}
		return true
	}

	for round := 0; round < 120; round++ {
		mut := append([]byte(nil), img...)
		switch r.Intn(3) {
		case 0: // truncate
			mut = mut[:r.Intn(len(mut)+1)]
		case 1: // bit flip
			mut[r.Intn(len(mut))] ^= 1 << uint(r.Intn(8))
		case 2: // zeroed span
			off := r.Intn(len(mut))
			end := off + 1 + r.Intn(48)
			if end > len(mut) {
				end = len(mut)
			}
			for i := off; i < end; i++ {
				mut[i] = 0
			}
		}
		mutPath := filepath.Join(dir, "mut.log")
		if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := NewFollower(FollowerConfig{
			Heap: memsim.NewHeap(testHeapWords),
			Dial: func() (net.Conn, error) { return nil, os.ErrClosed },
		})
		if err != nil {
			t.Fatal(err)
		}
		f.CatchUp(mutPath) // damage may or may not error; state must stay a prefix
		if !matchesPrefix(f.heap, f.Watermark()) {
			t.Fatalf("round %d: watermark %d is not a clean prefix", round, f.Watermark())
		}
		f.Close()
	}
}

// TestDamagedBatchIsAStreamError: the follower decodes stream records
// with the WAL's parser, so every way a records section can be wrong —
// a flipped bit inside a pair (the per-record CRC), a truncated record,
// bytes trailing the last record, a sequence gap inside the batch — is
// a stream error that leaves the watermark and the heap exactly at the
// last good record, from which a reconnect resumes.
func TestDamagedBatchIsAStreamError(t *testing.T) {
	// Record k writes its own word and overwrites a shared one, so every
	// prefix has a distinct heap.
	rec := func(t *testing.T, seq uint64) []byte {
		return walRecord(t, seq,
			footprint.Entry{Addr: memsim.Addr(seq), Val: 100 + seq},
			footprint.Entry{Addr: 50, Val: seq})
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, c := range []struct {
		name    string
		records func(t *testing.T) []byte
		wantWM  uint64
	}{
		{"bit-flipped pair", func(t *testing.T) []byte {
			r4 := rec(t, 4)
			r4[16+8] ^= 0x04 // first pair's value
			return join(rec(t, 3), r4)
		}, 3},
		{"truncated record", func(t *testing.T) []byte {
			r4 := rec(t, 4)
			return join(rec(t, 3), r4[:len(r4)-5])
		}, 3},
		{"trailing garbage", func(t *testing.T) []byte {
			return join(rec(t, 3), rec(t, 4), []byte("junk"))
		}, 4},
		{"mid-batch seq gap", func(t *testing.T) []byte {
			return join(rec(t, 3), rec(t, 5), rec(t, 6))
		}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := NewFollower(FollowerConfig{
				Heap: memsim.NewHeap(testHeapWords),
				Dial: func() (net.Conn, error) { return nil, os.ErrClosed },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.applyBatch(wire.ReplBatch{Watermark: 2, Records: join(rec(t, 1), rec(t, 2))}); err != nil {
				t.Fatal(err)
			}
			if err := f.applyBatch(wire.ReplBatch{Watermark: 6, Records: c.records(t)}); err == nil {
				t.Fatal("damaged batch applied without a stream error")
			}
			if f.Watermark() != c.wantWM || f.Applied() != c.wantWM {
				t.Fatalf("watermark %d, %d applied; want the last good record %d", f.Watermark(), f.Applied(), c.wantWM)
			}
			want := make([]uint64, testHeapWords)
			for seq := uint64(1); seq <= c.wantWM; seq++ {
				want[seq], want[50] = 100+seq, seq
			}
			checkHeap(t, f, want)
		})
	}
}
