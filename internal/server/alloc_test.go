package server_test

import (
	"net"
	"testing"
	"time"

	"sihtm/internal/memsim"
	"sihtm/internal/race"
	"sihtm/internal/replica"
	"sihtm/internal/wire"
)

// The hot-path allocation pins, in the mould of the PR 2 simulator pins
// (internal/htm/alloc_test.go): testing.AllocsPerRun counts mallocs
// process-wide, so a loopback round trip pins the client encoder, both
// server goroutine sides (reader → shard executor → writer) and the
// client reply path all at once. A warm-up loop first grows every
// pooled buffer (connIO, tasks, session waiters, the line pool) to its
// steady-state footprint; after it, a request must allocate nothing
// anywhere in the process.
//
// Under -race the detector's instrumentation allocates, so the tests
// still drive the full path (the race job's reason to run them) but
// skip the exact-zero assertion.

// TestServerRequestPathZeroAllocs pins the TXN path: frame read →
// admission → batched execute → reply encode → socket write, plus the
// client's AppendOpsFrame encode and waiter round trip. On the volatile
// server the writer sends the reply as soon as it takes it; on the
// durable one the writer first waits for the group-commit flush that
// covers the reply's stamp, and the pin is the same zero — the ack-wait
// count proves every measured reply crossed that wait. With a
// follower subscribed, every request's commit is also tailed out of the
// log, shipped as a TReplBatch and applied to the follower's heap, and
// the process still allocates nothing per request.
func TestServerRequestPathZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name              string
		durable, follower bool
	}{{"volatile", false, false}, {"durable", true, false}, {"durable-follower", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			f := startFixture(t, 256, 1, 16, 0, c.durable)
			var fol *replica.Follower
			if c.follower {
				addr := f.addr.String()
				var err error
				fol, err = replica.NewFollower(replica.FollowerConfig{
					Heap: memsim.NewHeap(f.heap.Size()),
					Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
				})
				if err != nil {
					t.Fatal(err)
				}
				fol.Start()
				t.Cleanup(func() { fol.Close() })
			}
			caughtUp := func() uint64 {
				if fol == nil {
					return 0
				}
				last := f.store.LastSeq()
				if !fol.WaitWatermark(last, 10*time.Second) {
					t.Fatalf("follower stuck at %d, leader at %d", fol.Watermark(), last)
				}
				return last
			}
			rb := dial(t, f, 1)
			s := rb.NewSession().(deferSession)

			op := func() {
				s.Reset()
				s.Defer(wire.Op{Kind: wire.OpRMW, Key: 7, Arg: 1})
				s.Defer(wire.Op{Kind: wire.OpGet, Key: 9})
				s.Defer(wire.Op{Kind: wire.OpScan, Key: 3, Arg: 4})
				s.Commit()
			}
			for i := 0; i < 512; i++ {
				op()
			}
			ackWaits := func() uint64 { return f.srv.Snapshot().Telemetry.AckWaitHist.Count() }
			before, waitsBefore := caughtUp(), ackWaits()
			allocs := testing.AllocsPerRun(500, op)
			if shipped := caughtUp() - before; fol != nil && shipped < 500 {
				t.Fatalf("the follower applied %d records during the measurement, want one per request", shipped)
			}
			if waits := ackWaits() - waitsBefore; c.durable && waits < 500 {
				t.Fatalf("%d replies waited for the log during the measurement, want one per request", waits)
			}
			if race.Enabled {
				t.Skipf("race detector instrumentation allocates; path exercised, pin skipped (measured %.2f)", allocs)
			}
			if allocs != 0 {
				t.Fatalf("steady-state TXN round trip allocates %.2f times, want 0", allocs)
			}
		})
	}
}

// TestServerTracedRequestPathZeroAllocs pins the same TXN path with
// tracing at full rate: every request carries a trace id, the server
// records five stage spans per request, and the client
// closes its round-trip span — all of it ring stores into preallocated
// slots, so the pin must stay at exactly zero.
func TestServerTracedRequestPathZeroAllocs(t *testing.T) {
	f := startFixture(t, 256, 1, 16, 0, false)
	rb := dial(t, f, 1)
	rb.EnableTracing(1)
	s := rb.NewSession().(deferSession)

	op := func() {
		s.Reset()
		s.Defer(wire.Op{Kind: wire.OpRMW, Key: 7, Arg: 1})
		s.Defer(wire.Op{Kind: wire.OpGet, Key: 9})
		s.Commit()
	}
	for i := 0; i < 512; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(500, op)
	if race.Enabled {
		t.Skipf("race detector instrumentation allocates; path exercised, pin skipped (measured %.2f)", allocs)
	}
	if allocs != 0 {
		t.Fatalf("steady-state traced TXN round trip allocates %.2f times, want 0", allocs)
	}
}

// TestRemoteRoundTripZeroAllocs pins the synchronous plain Session, the
// RemoteBackend conformance surface: each Read and Insert ships as a
// one-op TXN and waits for its reply.
func TestRemoteRoundTripZeroAllocs(t *testing.T) {
	f := startFixture(t, 256, 1, 16, 0, false)
	rb := dial(t, f, 1)
	s := rb.NewSession()
	ops := rb.Direct()

	op := func() {
		s.Read(ops, 7)
		s.Insert(ops, 9, 42)
	}
	for i := 0; i < 512; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(500, op)
	if race.Enabled {
		t.Skipf("race detector instrumentation allocates; path exercised, pin skipped (measured %.2f)", allocs)
	}
	if allocs != 0 {
		t.Fatalf("steady-state one-op TXN round trip allocates %.2f times, want 0", allocs)
	}
}
