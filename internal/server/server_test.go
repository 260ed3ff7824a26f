package server_test

import (
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/server"
	"sihtm/internal/sihtm"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/trace"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// deferSession is a remote session's deferred path: ops queue
// client-side and Commit ships them as one TXN.
type deferSession interface {
	engine.Session
	engine.Deferrer
}

// testSpec is the workload shape shared by the server tests.
func testSpec(keys int) engine.Spec {
	return engine.Spec{
		Name: "servertest",
		Keys: keys,
		Dist: engine.Dist{Kind: engine.DistUniform},
		Mix: []engine.MixEntry{
			{Op: engine.OpRead, Percent: 40},
			{Op: engine.OpReadModifyWrite, Percent: 40},
			{Op: engine.OpInsert, Percent: 10},
			{Op: engine.OpDelete, Percent: 10},
		},
		OpsPerTxMin: 2, OpsPerTxMax: 6,
		Seed: 99,
	}
}

// fixture is one loopback server plus its in-process guts.
type fixture struct {
	srv     *server.Server
	backend *engine.HashmapBackend
	heap    *memsim.Heap
	machine *htm.Machine
	store   *durable.Store
	dir     string
	addr    net.Addr
	served  chan error
}

// slowSystem delays every Atomic, building queues so admission batching
// becomes deterministic in tests.
type slowSystem struct {
	tm.System
	delay time.Duration
}

func (s slowSystem) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	time.Sleep(s.delay)
	s.System.Atomic(thread, kind, body)
}

// startFixture builds a populated hash-map backend behind a loopback
// server. delay > 0 wraps the system in slowSystem; durableOn attaches
// a WAL store.
func startFixture(t testing.TB, keys, shards, batchMax int, delay time.Duration, durableOn bool) *fixture {
	t.Helper()
	var dcfg *durable.Config
	if durableOn {
		dcfg = &durable.Config{}
	}
	return startFixtureStore(t, keys, shards, server.Config{BatchMax: batchMax}, delay, dcfg)
}

// startFixtureStore is startFixture with the admission knobs and the
// slow-trace threshold taken from knobs (BatchMax, AdmitWait, P99Target,
// TraceSlow) and the store's configuration
// spelled out (nil = volatile).
func startFixtureStore(t testing.TB, keys, shards int, knobs server.Config, delay time.Duration, dcfg *durable.Config) *fixture {
	t.Helper()
	spec := testSpec(keys)
	buckets := keys / 4
	if buckets < 1 {
		buckets = 1
	}
	heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	backend := engine.NewHashmapBackend(heap, buckets)
	engine.Populate(backend, spec)

	var sys tm.System = sihtm.NewSystem(m, shards, sihtm.Config{})
	f := &fixture{backend: backend, heap: heap, machine: m, served: make(chan error, 1)}
	cfg := server.Config{
		Backend:   backend,
		System:    sys,
		Shards:    shards,
		BatchMax:  knobs.BatchMax,
		AdmitWait: knobs.AdmitWait,
		P99Target: knobs.P99Target,
		TraceSlow: knobs.TraceSlow,
		Scenario:  "servertest",
	}
	if dcfg != nil {
		f.dir = t.TempDir()
		store, err := durable.Open(heap, filepath.Join(f.dir, "wal.log"),
			m.Topology().MaxThreads(), *dcfg)
		if err != nil {
			t.Fatal(err)
		}
		f.store = store
		sys = store.Attach(sys, m)
		cfg.System = sys
		cfg.Store = store
		cfg.CheckpointPath = filepath.Join(f.dir, "heap.ckpt")
	}
	if delay > 0 {
		cfg.System = slowSystem{System: cfg.System, delay: delay}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	f.addr = addr
	go func() { f.served <- srv.Serve() }()
	t.Cleanup(func() {
		f.srv.Drain()
		if f.store != nil {
			f.store.Close()
		}
	})
	return f
}

func dial(t *testing.T, f *fixture, conns int) *engine.RemoteBackend {
	t.Helper()
	rb, err := engine.DialRemote(f.addr.String(), conns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rb.Close() })
	return rb
}

// TestPointOpsOverLoopback: the synchronous session's single ops, each
// shipped as a one-op TXN, have exact key-value semantics.
func TestPointOpsOverLoopback(t *testing.T) {
	f := startFixture(t, 64, 2, 16, 0, false)
	rb := dial(t, f, 1)
	s := rb.NewSession()
	ops := rb.Direct()

	// Populated key.
	if v, ok := s.Read(ops, 7); !ok || v != engine.InitialValue(7) {
		t.Fatalf("Read(7) = (%d, %v)", v, ok)
	}
	// Upsert new and existing.
	if !s.Insert(ops, 1000, 5) {
		t.Error("Insert(fresh) reported existing")
	}
	if s.Insert(ops, 1000, 6) {
		t.Error("Insert(existing) reported new")
	}
	if v, ok := s.Read(ops, 1000); !ok || v != 6 {
		t.Fatalf("Read(1000) = (%d, %v), want (6, true)", v, ok)
	}
	// Delete present then absent.
	if !s.Delete(ops, 1000) {
		t.Error("Delete(present) reported absent")
	}
	if s.Delete(ops, 1000) {
		t.Error("Delete(absent) reported present")
	}
	// Scan over the dense populated prefix.
	if got := s.Scan(ops, 0, 10); got != 10 {
		t.Errorf("Scan(0, 10) = %d", got)
	}
	s.Commit()
	if err := rb.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSlow: a request the client did not sample gets server-origin
// spans only when it ran past TraceSlow — its request span and stage
// spans under one id with trace.ServerOriginBit set; with TraceSlow
// zero it gets none.
func TestTraceSlow(t *testing.T) {
	for _, c := range []struct {
		name string
		slow time.Duration
	}{{"1ns", time.Nanosecond}, {"off", 0}} {
		t.Run(c.name, func(t *testing.T) {
			f := startFixtureStore(t, 64, 1, server.Config{BatchMax: 16, TraceSlow: c.slow}, 0, nil)
			rb := dial(t, f, 1)
			s := rb.NewSession()
			// The connection's writer records a request's spans before it
			// writes the next reply, so once the second reply is in, the
			// first request's spans are in the ring.
			s.Read(rb.Direct(), 7)
			s.Read(rb.Direct(), 8)
			s.Commit()
			byID := map[uint64]map[trace.Kind]int{}
			for _, sp := range f.srv.TraceRing().Snapshot(nil) {
				if sp.Trace&trace.ServerOriginBit == 0 {
					t.Errorf("span %v of an unsampled request has client-origin id %#x", sp.Kind, sp.Trace)
				}
				if byID[sp.Trace] == nil {
					byID[sp.Trace] = map[trace.Kind]int{}
				}
				byID[sp.Trace][sp.Kind]++
			}
			if c.slow == 0 {
				if len(byID) != 0 {
					t.Fatalf("TraceSlow off recorded spans under %d ids", len(byID))
				}
				return
			}
			// The second request's spans may still be landing.
			whole := 0
			for _, kinds := range byID {
				if kinds[trace.KRequest] == 1 && kinds[trace.KAdmit] == 1 && kinds[trace.KExec] == 1 && kinds[trace.KFlush] == 1 {
					whole++
				}
			}
			if whole == 0 {
				t.Fatalf("no id carries one each of request, admit, exec and flush spans: %v", byID)
			}
		})
	}
}

func TestTxnAtomicRMWBatch(t *testing.T) {
	f := startFixture(t, 64, 2, 32, 0, false)
	rb := dial(t, f, 1)
	s := rb.NewSession().(deferSession)

	// One deferred transaction: rmw three keys, insert one, delete one.
	s.Reset()
	s.Defer(wire.Op{Kind: wire.OpRMW, Key: 1, Arg: 1})
	s.Defer(wire.Op{Kind: wire.OpRMW, Key: 1, Arg: 1})
	s.Defer(wire.Op{Kind: wire.OpRMW, Key: 2, Arg: 10})
	s.Defer(wire.Op{Kind: wire.OpPut, Key: 500, Arg: 42})
	s.Defer(wire.Op{Kind: wire.OpDel, Key: 3})
	s.Commit()

	check := rb.NewSession()
	ops := rb.Direct()
	if v, _ := check.Read(ops, 1); v != engine.InitialValue(1)+2 {
		t.Errorf("rmw chain: key 1 = %d, want %d", v, engine.InitialValue(1)+2)
	}
	if v, _ := check.Read(ops, 2); v != engine.InitialValue(2)+10 {
		t.Errorf("rmw: key 2 = %d", v)
	}
	if v, ok := check.Read(ops, 500); !ok || v != 42 {
		t.Errorf("insert: key 500 = (%d, %v)", v, ok)
	}
	if _, ok := check.Read(ops, 3); ok {
		t.Error("delete: key 3 still present")
	}
}

// TestBatchingCoalesces pipelines many concurrent transactions against
// a deliberately slow commit path: queues build, and the admission
// stage must coalesce several client requests into each transaction.
func TestBatchingCoalesces(t *testing.T) {
	f := startFixture(t, 256, 1, 64, time.Millisecond, false)
	rb := dial(t, f, 1)

	const workers, each = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := rb.NewSession().(deferSession)
			for i := 0; i < each; i++ {
				s.Reset()
				s.Defer(wire.Op{Kind: wire.OpRMW, Key: uint64(w*100 + i), Arg: 1})
				s.Defer(wire.Op{Kind: wire.OpGet, Key: uint64(i)})
				s.Commit()
			}
		}(w)
	}
	wg.Wait()

	st, err := rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	requests := uint64(workers * each)
	if st.BatchedOps != 2*requests {
		t.Fatalf("BatchedOps = %d, want %d", st.BatchedOps, 2*requests)
	}
	if st.Batches >= requests {
		t.Errorf("no coalescing: %d batches for %d requests", st.Batches, requests)
	}
	if st.Hist.Count() != requests {
		t.Errorf("histogram saw %d ops, want %d", st.Hist.Count(), requests)
	}
	if p50 := st.Hist.Quantile(0.5); p50 < time.Millisecond {
		t.Errorf("p50 %s below the injected 1ms commit delay", p50)
	}
}

// TestReadOnlyBatchesRideTheFastPath: batches made entirely of reads
// must launch as read-only transactions (SI-HTM's uninstrumented path),
// visible as read-only commits in the server's collector.
func TestReadOnlyBatchesRideTheFastPath(t *testing.T) {
	f := startFixture(t, 64, 2, 16, 0, false)
	rb := dial(t, f, 1)
	s := rb.NewSession().(deferSession)
	for i := 0; i < 20; i++ {
		s.Reset()
		s.Defer(wire.Op{Kind: wire.OpGet, Key: uint64(i)})
		s.Defer(wire.Op{Kind: wire.OpScan, Key: uint64(i), Arg: 4})
		s.Commit()
	}
	st, err := rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.CommitsRO == 0 {
		t.Errorf("no read-only commits server-side: %+v", st.Stats)
	}
}

// TestBadFrameClosesConnection: a framing violation is fatal to the
// connection, not resynchronized past.
func TestBadFrameClosesConnection(t *testing.T) {
	f := startFixture(t, 64, 1, 16, 0, false)
	nc, err := net.Dial("tcp", f.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("this is not a frame, not even close.")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered a garbage frame instead of closing")
	}
}

// TestReservedCodesAnswerErr: the codes 0x01–0x04 once named single-op
// point requests, and 0x06 a live change of the admission knobs; all are
// reserved now. A well-formed frame of each gets a TErr naming its type,
// and the connection keeps serving: a TXN pipelined behind it is
// answered.
func TestReservedCodesAnswerErr(t *testing.T) {
	f := startFixture(t, 64, 1, 16, 0, false)
	nc, err := net.Dial("tcp", f.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	for _, code := range []wire.Type{0x01, 0x02, 0x03, 0x04, 0x06} {
		// A payload in the retired layout: key+arg, or the knobs' JSON.
		payload := make([]byte, 16)
		if code == 0x06 {
			payload = []byte(`{"batch_max":128}`)
		}
		req := wire.AppendFrame(nil, uint64(code), code, payload)
		req = wire.AppendOpsFrame(req, 100+uint64(code), []wire.Op{{Kind: wire.OpGet, Key: 7}})
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		got := map[uint64]wire.Type{}
		for i := 0; i < 2; i++ {
			id, typ, payload, nbuf, err := wire.ReadFrame(nc, buf)
			if err != nil {
				t.Fatalf("code %#x: connection broke: %v", uint8(code), err)
			}
			buf = nbuf
			got[id] = typ
			switch id {
			case uint64(code):
				if typ != wire.TErr || !strings.Contains(string(payload), code.String()) {
					t.Fatalf("code %#x answered %v %q, want a TErr naming %v", uint8(code), typ, payload, code)
				}
			case 100 + uint64(code):
				rs, err := wire.ParseResults(payload, nil)
				if typ != wire.TReply || err != nil || len(rs) != 1 || rs[0] != (wire.Result{OK: true, Val: engine.InitialValue(7)}) {
					t.Fatalf("TXN behind code %#x answered %v %v %+v", uint8(code), typ, err, rs)
				}
			default:
				t.Fatalf("reply for unknown id %d", id)
			}
		}
		if len(got) != 2 {
			t.Fatalf("code %#x: replies %v, want one per request", uint8(code), got)
		}
	}
	if bm := f.srv.Snapshot().BatchMax; bm != 16 {
		t.Fatalf("batch_max = %d after a 0x06 frame, want the configured 16", bm)
	}
}

// TestGracefulDrain: in-flight transactions are answered, Serve returns
// nil, later requests fail cleanly, and with a durable store attached
// the final checkpoint lands on disk.
func TestGracefulDrain(t *testing.T) {
	f := startFixture(t, 128, 2, 16, 0, true)
	rb := dial(t, f, 2)
	s := rb.NewSession().(deferSession)
	for i := 0; i < 50; i++ {
		s.Reset()
		s.Defer(wire.Op{Kind: wire.OpRMW, Key: uint64(i), Arg: 1})
		s.Commit()
	}
	if err := f.srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-f.served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := rb.Stats(); err == nil {
		t.Error("request succeeded after drain")
	}
	// Final checkpoint written and restorable.
	heap2 := memsim.NewHeap(f.heap.Size())
	rep, err := durable.Recover(heap2, filepath.Join(f.dir, "heap.ckpt"), filepath.Join(f.dir, "wal.log"))
	if err != nil {
		t.Fatalf("recover after drain: %v", err)
	}
	if !rep.CheckpointUsed {
		t.Error("drain did not leave a usable final checkpoint")
	}
	for a := 0; a < f.heap.Size(); a++ {
		if w, g := f.heap.Load(memsim.Addr(a)), heap2.Load(memsim.Addr(a)); w != g {
			t.Fatalf("recovered heap differs at word %d: %d, want %d", a, g, w)
		}
	}
}

// TestDurableAckCrashConsistency: stop the server abruptly (no final
// checkpoint) and verify recovery from the group-commit log alone
// reproduces the live heap exactly — every acknowledged transaction
// was durable before its reply.
func TestDurableAckCrashConsistency(t *testing.T) {
	f := startFixture(t, 128, 2, 32, 0, true)
	// No final checkpoint: recovery must come from the WAL prefix.
	f.srv = withoutCheckpoint(t, f)
	rb := dial(t, f, 2)

	const workers, each = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := rb.NewSession().(deferSession)
			for i := 0; i < each; i++ {
				s.Reset()
				s.Defer(wire.Op{Kind: wire.OpRMW, Key: uint64(w*31 + i), Arg: 1})
				s.Defer(wire.Op{Kind: wire.OpRMW, Key: uint64(i), Arg: 2})
				s.Commit()
			}
		}(w)
	}
	wg.Wait()
	// Quiesce commits (drain) but recover only from the log: the acked
	// history replayed over the deterministic base must equal the live
	// heap word for word.
	if err := f.srv.Drain(); err != nil {
		t.Fatal(err)
	}
	// Rebuild the deterministic base state and replay the log over it.
	spec := testSpec(128)
	buckets := 128 / 4
	base := memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
	backend2 := engine.NewHashmapBackend(base, buckets)
	engine.Populate(backend2, spec)
	if _, err := durable.Recover(base, filepath.Join(f.dir, "nonexistent.ckpt"), filepath.Join(f.dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	if base.Size() != f.heap.Size() {
		t.Fatalf("rebuilt heap geometry differs: %d vs %d", base.Size(), f.heap.Size())
	}
	for a := 0; a < f.heap.Size(); a++ {
		if w, g := f.heap.Load(memsim.Addr(a)), base.Load(memsim.Addr(a)); w != g {
			t.Fatalf("recovered heap differs at word %d: %d, want %d", a, g, w)
		}
	}
	if err := backend2.Check(); err != nil {
		t.Fatalf("recovered structure: %v", err)
	}
}

// withoutCheckpoint rebuilds the fixture server without a drain-time
// checkpoint path, re-listening on a fresh port.
func withoutCheckpoint(t *testing.T, f *fixture) *server.Server {
	t.Helper()
	f.srv.Drain()
	var sys tm.System = sihtm.NewSystem(f.machine, 2, sihtm.Config{})
	sys = f.store.Attach(sys, f.machine)
	srv, err := server.New(server.Config{
		Backend: f.backend, System: sys, Shards: 2, BatchMax: 32, Store: f.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = addr
	go func() { srv.Serve() }()
	t.Cleanup(func() { srv.Drain() })
	return srv
}

// TestStatsShape sanity-checks the stats snapshot fields the load
// generator depends on.
func TestStatsShape(t *testing.T) {
	f := startFixture(t, 64, 3, 16, 0, false)
	rb := dial(t, f, 1)
	s := rb.NewSession()
	s.Read(rb.Direct(), 1)
	s.Commit()
	st, err := rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.System != "si-htm" || st.Shards != 3 || st.Scenario != "servertest" {
		t.Fatalf("stats mislabeled: %+v", st)
	}
	if st.Durable {
		t.Error("non-durable server reports durable")
	}
	if st.Batches == 0 || st.Hist.Count() == 0 {
		t.Errorf("counters flat: %+v", st)
	}
	var _ stats.HistogramSnapshot = st.Hist
}
