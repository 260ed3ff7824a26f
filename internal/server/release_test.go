package server_test

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/memsim"
	"sihtm/internal/replica"
	"sihtm/internal/server"
	"sihtm/internal/trace"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// The ordering rule — no reply leaves the node before DurableSeq covers
// the log position at which its batch executed — tested on a store with
// no flush daemon: nothing becomes durable until the test calls Sync, so
// every "not yet" below is a state that holds, not a race that was won.

// startManualSync serves a durable fixture whose log only Sync flushes.
func startManualSync(t *testing.T, shards, batchMax int) *fixture {
	t.Helper()
	return startFixtureStore(t, 128, shards, batchMax, 0, &durable.Config{NoDaemon: true})
}

// rawClient pipelines frames on one connection without waiting for
// replies.
type rawClient struct {
	t       *testing.T
	c       net.Conn
	br      *bufio.Reader
	buf     []byte
	scratch []byte
	results []wire.Result
}

func dialRaw(t *testing.T, f *fixture) *rawClient {
	t.Helper()
	c, err := net.Dial("tcp", f.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawClient{t: t, c: c, br: bufio.NewReader(c)}
}

func (r *rawClient) send(id uint64, ops ...wire.Op) { r.sendTraced(id, 0, ops...) }

// sendTraced is send with a client-sampled trace id (0 = unsampled).
func (r *rawClient) sendTraced(id, traceID uint64, ops ...wire.Op) {
	r.t.Helper()
	r.buf = wire.AppendOpsFrameT(r.buf[:0], id, traceID, ops)
	if _, err := r.c.Write(r.buf); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads the next reply and returns its id and first result value.
func (r *rawClient) recv() (uint64, uint64) {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	id, typ, payload, scratch, err := wire.ReadFrame(r.br, r.scratch)
	r.scratch = scratch
	if err != nil {
		r.t.Fatalf("reading a reply: %v", err)
	}
	if typ != wire.TReply {
		r.t.Fatalf("reply %d has type %v: %s", id, typ, payload)
	}
	if r.results, err = wire.ParseResults(payload, r.results[:0]); err != nil || len(r.results) == 0 {
		r.t.Fatalf("reply %d: %d results, %v", id, len(r.results), err)
	}
	return id, r.results[0].Val
}

// waitSnap polls the server's counters until cond holds.
func waitSnap(t *testing.T, srv *server.Server, what string, cond func(wire.ServerStats) bool) wire.ServerStats {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		st := srv.Snapshot()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: batches=%d ops=%d in=%d out=%d",
				what, st.Batches, st.BatchedOps, st.Telemetry.FramesIn, st.Telemetry.FramesOut)
		}
	}
}

func rmw(key uint64) wire.Op { return wire.Op{Kind: wire.OpRMW, Key: key, Arg: 1} }
func get(key uint64) wire.Op { return wire.Op{Kind: wire.OpGet, Key: key} }

// TestNoReplyBeforeDurable: an update, a later read of what it wrote and
// a read-only batch that logged nothing are all executed and none is
// answered until the log covers them; one Sync then answers all three.
func TestNoReplyBeforeDurable(t *testing.T) {
	f := startManualSync(t, 2, 16)
	if got := f.srv.ClaimedShards(); got != 2 {
		t.Fatalf("%d of 2 shards claimed their ack on a durable leader", got)
	}
	c := dialRaw(t, f)
	want := engine.InitialValue(7) + 1

	c.send(1, rmw(7))
	waitSnap(t, f.srv, "the RMW to execute", func(s wire.ServerStats) bool { return s.Batches == 1 })
	c.send(2, get(7))
	waitSnap(t, f.srv, "the GET to execute", func(s wire.ServerStats) bool { return s.Batches == 2 })
	// Whichever shard key 8 routes to, its batch drew no sequence of its
	// own: it waits for LastSeq as read after it ran.
	c.send(3, get(8))
	st := waitSnap(t, f.srv, "the second GET to execute", func(s wire.ServerStats) bool { return s.Batches == 3 })
	if st.Telemetry.FramesOut != 0 || f.store.DurableSeq() != 0 {
		t.Fatalf("%d replies sent with DurableSeq %d and LastSeq %d", st.Telemetry.FramesOut, f.store.DurableSeq(), f.store.LastSeq())
	}

	if err := f.store.Sync(); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint64{}
	for i := 0; i < 3; i++ {
		id, v := c.recv()
		got[id] = v
	}
	if got[1] != want || got[2] != want || got[3] != engine.InitialValue(8) {
		t.Fatalf("replies %v, want 1 and 2 = %d, 3 = %d", got, want, engine.InitialValue(8))
	}
	st = waitSnap(t, f.srv, "the replies to be counted", func(s wire.ServerStats) bool { return s.Telemetry.FramesOut == 3 })
	if n := st.Telemetry.AckWaitHist.Count(); n != 3 {
		t.Fatalf("%d ack waits observed for 3 held replies", n)
	}
}

// TestReplyQueueFullBlocksExecutor: with more requests in flight than
// the connection's reply queue holds while its writer waits for the log,
// the executor blocks — batches stop, nothing is dropped — and one Sync
// answers everything in order, the requests behind the blockage
// included (they are reads: once run they wait for nothing newer).
func TestReplyQueueFullBlocksExecutor(t *testing.T) {
	f := startManualSync(t, 1, 1) // one request per batch: Batches counts requests
	c := dialRaw(t, f)
	const writes = 100
	// The queue, the task the writer holds, the task the executor is
	// stuck queueing — and 100 more that stay queued behind it.
	const stuck = server.ReplyQueueDepth + 2
	const total = stuck + 100
	for i := 1; i <= total; i++ {
		if i <= writes {
			c.send(uint64(i), rmw(3))
		} else {
			c.send(uint64(i), get(3))
		}
	}
	blocked := func(s wire.ServerStats) bool { return s.Telemetry.FramesIn == total && s.Batches == stuck }
	waitSnap(t, f.srv, "the executor to block on a full reply queue", blocked)
	for i := 0; i < 100; i++ { // it stays blocked
		runtime.Gosched()
	}
	if st := f.srv.Snapshot(); !blocked(st) || st.Telemetry.FramesOut != 0 {
		t.Fatalf("batches=%d (want %d) out=%d (want 0) with the reply queue full", st.Batches, uint64(stuck), st.Telemetry.FramesOut)
	}

	if err := f.store.Sync(); err != nil {
		t.Fatal(err)
	}
	base := engine.InitialValue(3)
	for i := 1; i <= total; i++ {
		id, v := c.recv()
		want := base + uint64(min(i, writes))
		if id != uint64(i) || v != want {
			t.Fatalf("reply %d: id %d value %d, want value %d", i, id, v, want)
		}
	}
}

// TestDrainDeliversParkedReplies: Drain syncs the log itself, so every
// reply a writer holds is delivered before the connection closes.
func TestDrainDeliversParkedReplies(t *testing.T) {
	f := startManualSync(t, 2, 16)
	c := dialRaw(t, f)
	const n = 50
	for i := 1; i <= n; i++ {
		c.send(uint64(i), rmw(uint64(i)))
	}
	st := waitSnap(t, f.srv, "every request to execute", func(s wire.ServerStats) bool { return s.BatchedOps == n })
	if st.Telemetry.FramesOut != 0 {
		t.Fatalf("%d replies sent before anything was durable", st.Telemetry.FramesOut)
	}
	if err := f.srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		id, v := c.recv()
		if v != engine.InitialValue(id)+1 || seen[id] {
			t.Fatalf("reply for %d: value %d, seen before: %v", id, v, seen[id])
		}
		seen[id] = true
	}
	if _, _, _, _, err := wire.ReadFrame(c.br, nil); err != io.EOF {
		t.Fatalf("after the last reply: %v, want EOF", err)
	}
	if f.store.DurableSeq() != f.store.LastSeq() {
		t.Fatalf("drained with DurableSeq %d behind LastSeq %d", f.store.DurableSeq(), f.store.LastSeq())
	}
}

// TestShippedRecordCarriesTraceID: a record becomes shippable the moment
// it is durable, and nothing on the request path waits for that any
// more, so a sampled request's trace id has to be on file at commit.
// Each record here is made durable only after its batch was counted, and
// every one must reach the follower with its id.
func TestShippedRecordCarriesTraceID(t *testing.T) {
	f := startManualSync(t, 1, 16)
	addr := f.addr.String()
	fol, err := replica.NewFollower(replica.FollowerConfig{
		Heap: memsim.NewHeap(f.heap.Size()),
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(256)
	fol.SetTraceRing(ring)
	fol.Start()
	t.Cleanup(func() { fol.Close() })

	c := dialRaw(t, f)
	const n = 20
	idOf := func(seq uint64) uint64 { return 0xfeed0000 + seq }
	for seq := uint64(1); seq <= n; seq++ {
		c.sendTraced(seq, idOf(seq), rmw(seq))
		waitSnap(t, f.srv, "the request to commit", func(s wire.ServerStats) bool { return s.Batches == seq })
		if err := f.store.Sync(); err != nil {
			t.Fatal(err)
		}
		if !fol.WaitWatermark(seq, 10*time.Second) {
			t.Fatalf("follower stuck at %d, leader durable through %d", fol.Watermark(), seq)
		}
	}
	applied := map[uint64]uint64{}
	for _, s := range ring.Snapshot(nil) {
		if s.Kind == trace.KReplApply {
			applied[s.Seq] = s.Trace
		}
	}
	for seq := uint64(1); seq <= n; seq++ {
		if applied[seq] != idOf(seq) {
			t.Fatalf("record %d reached the follower with trace id %#x, want %#x", seq, applied[seq], idOf(seq))
		}
	}
}
