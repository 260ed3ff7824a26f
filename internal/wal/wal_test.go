package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

func entriesOf(pairs ...uint64) []footprint.Entry {
	if len(pairs)%2 != 0 {
		panic("pairs must be even")
	}
	es := make([]footprint.Entry, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		es = append(es, footprint.Entry{Addr: memsim.Addr(pairs[i]), Val: pairs[i+1]})
	}
	return es
}

// TestRoundTrip appends records, syncs, and replays them back byte-exact.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]footprint.Entry{
		entriesOf(1, 10, 2, 20),
		entriesOf(3, 30),
		{}, // empty write set is legal framing (not produced by the hook)
		entriesOf(4, 40, 5, 50, 6, 60),
	}
	for _, es := range want {
		l.Append(es)
	}
	if got := l.LastSeq(); got != uint64(len(want)) {
		t.Fatalf("LastSeq = %d, want %d", got, len(want))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]footprint.Entry
	st, err := Replay(path, func(seq uint64, es []footprint.Entry) error {
		cp := make([]footprint.Entry, len(es))
		copy(cp, es)
		got = append(got, cp)
		if seq != uint64(len(got)) {
			t.Errorf("seq %d out of order at record %d", seq, len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != len(want) || st.TailBytes != 0 {
		t.Fatalf("stats %+v, want %d records, no tail", st, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("record %d: %d entries, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("record %d entry %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// stallFile is the log's file with an fsync that stalls: every Sync
// announces itself on entered and then waits for a token on release.
type stallFile struct {
	logFile
	entered chan struct{}
	release chan struct{}
}

func (f *stallFile) Sync() error {
	f.entered <- struct{}{}
	<-f.release
	return f.logFile.Sync()
}

// createStalled opens a daemon-driven log whose fsyncs the test paces.
func createStalled(t *testing.T, path string) (*Log, *stallFile) {
	t.Helper()
	l, err := Create(path, Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	sf := &stallFile{logFile: l.f, entered: make(chan struct{}), release: make(chan struct{})}
	l.f = sf
	// NoDaemon closed done; start the daemon now that the file is swapped.
	l.done = make(chan struct{})
	go l.daemon()
	return l, sf
}

// TestKickStartsFlush: a record appended to an idle log is acknowledged
// by the flush its own kick started; no timer is involved.
func TestKickStartsFlush(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			seq := l.Append(entriesOf(uint64(i), uint64(i)))
			l.WaitDurable(seq)
			if l.DurableSeq() < seq {
				t.Errorf("DurableSeq %d < acknowledged %d", l.DurableSeq(), seq)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ten appends to an idle log not acknowledged within 5s")
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Records != 10 || st.Batches != 10 {
		t.Fatalf("%d records in %d groups, want 10 in 10", st.Records, st.Batches)
	}
}

// TestGroupFormsBehindFsync: the first record starts a flush at once;
// everything appended while that fsync is in flight is the next group,
// and nothing else is — N racing appenders land in exactly two groups.
func TestGroupFormsBehindFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, sf := createStalled(t, path)

	first := l.Append(entriesOf(0, 1))
	<-sf.entered // the daemon is inside the first group's fsync
	const appenders = 16
	var wg sync.WaitGroup
	for w := 1; w <= appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l.Append(entriesOf(uint64(w), 1))
		}(w)
	}
	wg.Wait()
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d while the first fsync is still in flight", got)
	}
	sf.release <- struct{}{}
	l.WaitDurable(first)
	<-sf.entered // second group
	if got := l.DurableSeq(); got != first {
		t.Fatalf("DurableSeq = %d after the first group, want %d", got, first)
	}
	sf.release <- struct{}{}
	l.WaitDurable(first + appenders)

	st := l.Stats()
	if st.Batches != 2 || st.Fsyncs != 2 {
		t.Fatalf("%d groups, %d fsyncs for 1+%d records; want exactly 2 and 2", st.Batches, st.Fsyncs, appenders)
	}
	go func() { <-sf.entered; sf.release <- struct{}{} }() // Close's own flush
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 1+appenders || st2.TailBytes != 0 {
		t.Fatalf("replay %+v, want %d clean records", st2, 1+appenders)
	}
}

// TestCloseDuringFlush: Close called while a flush is in flight waits
// for it and flushes what was appended behind it; nothing is lost.
func TestCloseDuringFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, sf := createStalled(t, path)

	l.Append(entriesOf(1, 1))
	<-sf.entered
	l.Append(entriesOf(2, 2))
	l.Append(entriesOf(3, 3))
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	// Let every fsync through: the one in flight, then the daemon's next
	// group or Close's own flush, whichever takes the two records.
	stop := make(chan struct{})
	go func() {
		sf.release <- struct{}{}
		for {
			select {
			case <-sf.entered:
				sf.release <- struct{}{}
			case <-stop:
				return
			}
		}
	}()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	close(stop)
	st, err := Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || st.TailBytes != 0 {
		t.Fatalf("replay %+v, want 3 clean records", st)
	}
}

// TestTornTail: truncating or corrupting the file mid-record yields a
// clean prefix and a discarded tail, never garbage records.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		es := entriesOf(uint64(i), uint64(i*7), uint64(i+100), uint64(i*13))
		l.Append(es)
		sizes[i] = recordSize(len(es))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate at every byte offset: replay must return exactly the
	// records fully contained in the prefix.
	bounds := make([]int, n+1)
	for i := 0; i < n; i++ {
		bounds[i+1] = bounds[i] + sizes[i]
	}
	for cut := 0; cut <= len(data); cut += 7 {
		st, err := ReplayBytes(data[:cut], nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRecs := 0
		for bounds[wantRecs+1] <= cut {
			wantRecs++
			if wantRecs == n {
				break
			}
		}
		if st.Records != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, st.Records, wantRecs)
		}
	}

	// Flip a byte inside record k: replay stops before k.
	for k := 0; k < n; k += 5 {
		corrupt := bytes.Clone(data)
		corrupt[bounds[k]+sizes[k]/2] ^= 0xFF
		st, err := ReplayBytes(corrupt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != k {
			t.Fatalf("corrupt record %d: replayed %d records, want %d", k, st.Records, k)
		}
	}
}

// TestAppendSteadyStateAllocs: once the buffer has grown, Append (the
// commit hot path) allocates nothing.
func TestAppendSteadyStateAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	es := entriesOf(1, 2, 3, 4, 5, 6, 7, 8)
	for i := 0; i < 4096; i++ { // grow the buffer
		l.Append(es)
	}
	if err := l.Sync(); err != nil { // reset len, keep capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() { l.Append(es) })
	if allocs != 0 {
		t.Errorf("Append allocates %.2f objects/op at steady state, want 0", allocs)
	}
}

// TestFirstSeq: a log continued from a recovered store starts where the
// history left off, and replay accepts the configured base.
func TestFirstSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, Config{NoDaemon: true, FirstSeq: 100})
	if err != nil {
		t.Fatal(err)
	}
	if seq := l.Append(entriesOf(1, 1)); seq != 100 {
		t.Fatalf("first seq = %d, want 100", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FirstSeq != 100 || st.Records != 1 {
		t.Fatalf("replay %+v, want first seq 100", st)
	}
}

// TestRedoIsWholeOrNothing: a record with any address beyond the heap
// (including one whose int conversion would be negative) is refused
// before any word is stored; an accepted record lands whole and moves
// the allocation watermark past its highest line, never backwards.
func TestRedoIsWholeOrNothing(t *testing.T) {
	heap := memsim.NewHeapLines(8)
	alloc := heap.Allocated()
	for _, bad := range []uint64{uint64(heap.Size()), 1 << 63, ^uint64(0)} {
		if err := Redo(heap, entriesOf(5, 55, bad, 1)); err == nil {
			t.Fatalf("address %#x accepted on a %d-word heap", bad, heap.Size())
		}
		if heap.Load(5) != 0 || heap.Allocated() != alloc {
			t.Fatalf("refused record with address %#x left word 5 = %d, allocated %d", bad, heap.Load(5), heap.Allocated())
		}
	}
	line := uint64(memsim.WordsPerLine)
	if err := Redo(heap, entriesOf(5, 55, 3*line+2, 7)); err != nil {
		t.Fatal(err)
	}
	if heap.Load(5) != 55 || heap.Load(memsim.Addr(3*line+2)) != 7 || heap.Allocated() != int(4*line) {
		t.Fatalf("accepted record: words %d, %d, allocated %d; want 55, 7, %d",
			heap.Load(5), heap.Load(memsim.Addr(3*line+2)), heap.Allocated(), 4*line)
	}
	if err := Redo(heap, entriesOf(1, 9)); err != nil || heap.Allocated() != int(4*line) {
		t.Fatalf("a record below the watermark moved it to %d (%v)", heap.Allocated(), err)
	}
}

// TestNotifyTokenPerSync: a registered channel holds a token after
// every flush, Sync included, and DurableSeq already covers the records
// that flush wrote when the token arrives.
func TestNotifyTokenPerSync(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := make(chan struct{}, 1)
	l.Notify(ch)
	for i := uint64(1); i <= 3; i++ {
		seq := l.Append(entriesOf(i, i))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		default:
			t.Fatalf("no token after Sync %d", i)
		}
		if got := l.DurableSeq(); got < seq {
			t.Fatalf("token for Sync %d with DurableSeq %d behind %d", i, got, seq)
		}
	}
}

// TestNotifyFullChannelNeverBlocksFlush: a receiver that never takes its
// token costs the flush nothing — the channel keeps the one token it
// holds and later flushes complete.
func TestNotifyFullChannelNeverBlocksFlush(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	full := make(chan struct{}, 1)
	full <- struct{}{}
	l.Notify(full)
	unbuffered := make(chan struct{})
	l.Notify(unbuffered)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			l.Append(entriesOf(1, 1))
			if err := l.Sync(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a flush blocked on a channel nobody reads")
	}
	if len(full) != 1 || l.DurableSeq() != 5 {
		t.Fatalf("%d tokens held, DurableSeq %d; want 1 and 5", len(full), l.DurableSeq())
	}
}

// TestStopNotifyEndsDelivery: once StopNotify returns, no flush sends
// to the channel, while another registration keeps its tokens.
func TestStopNotifyEndsDelivery(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	gone, kept := make(chan struct{}, 1), make(chan struct{}, 1)
	l.Notify(gone)
	l.Notify(kept)
	l.StopNotify(gone)
	l.Append(entriesOf(1, 1))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 || len(kept) != 1 {
		t.Fatalf("tokens: %d after StopNotify (want 0), %d still registered (want 1)", len(gone), len(kept))
	}
}

// TestWaitDurableWakesOnSync: with no daemon, WaitDurable blocks until
// another goroutine's Sync covers the sequence, then returns.
func TestWaitDurableWakesOnSync(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq := l.Append(entriesOf(1, 1))
	woke := make(chan uint64, 1)
	go func() {
		l.WaitDurable(seq)
		woke <- l.DurableSeq()
	}()
	// Once the waiter has registered it can only leave through a flush.
	for registered := 0; registered == 0; runtime.Gosched() {
		l.notifyMu.Lock()
		registered = len(l.notify)
		l.notifyMu.Unlock()
	}
	if len(woke) != 0 {
		t.Fatalf("WaitDurable(%d) returned before any Sync", seq)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-woke:
		if d < seq {
			t.Fatalf("WaitDurable(%d) returned with DurableSeq %d", seq, d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable did not return after Sync")
	}
}
