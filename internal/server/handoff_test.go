package server_test

import (
	"bufio"
	"net"
	"testing"

	"sihtm/internal/server"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// The hand-offs between a connection's reader, the shard executors and
// the connection's writer are batch-grained: a reader sends each shard
// one chain per socket read, an executor queues one message per
// connection per batch, and the writer sends a message in one socket
// write when nothing else is queued.

// burst encodes n one-op TXN frames, ids 1..n, alternating an RMW of
// key i and a GET of it.
func burst(n int) []byte {
	var b []byte
	for i := 1; i <= n; i++ {
		op := get(uint64(i))
		if i%2 == 1 {
			op = rmw(uint64(i))
		}
		b = wire.AppendOpsFrame(b, uint64(i), []wire.Op{op})
	}
	return b
}

// TestBurstRunsAsOneBatchAndOneWrite: 32 requests sent in one client
// write to a one-shard server with BatchMax 32 reach the executor as one
// chain, run as one transaction and are answered in one socket write.
func TestBurstRunsAsOneBatchAndOneWrite(t *testing.T) {
	f := startFixture(t, 256, 1, 32, 0, false)
	c := dialRaw(t, f)
	const n = 32
	writes := server.SocketWrites.Load()
	if _, err := c.c.Write(burst(n)); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		id, v := c.recv()
		want := engine.InitialValue(id)
		if id%2 == 1 {
			want++
		}
		if seen[id] || v != want {
			t.Fatalf("reply %d: value %d (want %d), seen before: %v", id, v, want, seen[id])
		}
		seen[id] = true
	}
	st := f.srv.Snapshot()
	if st.Batches != 1 || st.BatchedOps != n {
		t.Fatalf("%d requests ran as %d batches of %d ops in all, want 1 batch", n, st.Batches, st.BatchedOps)
	}
	if w := server.SocketWrites.Load() - writes; w != 1 {
		t.Fatalf("%d replies took %d socket writes, want 1", n, w)
	}
}

// TestWholeFramesAnsweredBeforeTheReadBlocks: a reader whose buffer
// holds three whole frames and half of a fourth hands the three over
// before it blocks reading the rest, so their replies arrive while the
// client still holds the fourth frame's tail. The fourth frame carries
// sixteen ops: its half is longer than a frame header and than a whole
// one-op frame, so only peeking the header tells the reader that the
// frame is not all there.
func TestWholeFramesAnsweredBeforeTheReadBlocks(t *testing.T) {
	f := startFixture(t, 256, 1, 16, 0, false)
	c := dialRaw(t, f)
	head := burst(3)
	ops := make([]wire.Op, 16)
	for i := range ops {
		ops[i] = get(uint64(100 + i))
	}
	fourth := wire.AppendOpsFrame(nil, 4, ops)
	half := len(fourth) / 2
	if one := len(head) / 3; half <= one {
		t.Fatalf("half of the fourth frame is %d bytes, not longer than a one-op frame (%d)", half, one)
	}
	if _, err := c.c.Write(append(head, fourth[:half]...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if id, _ := c.recv(); id < 1 || id > 3 {
			t.Fatalf("reply for request %d before the fourth frame was complete", id)
		}
	}
	if _, err := c.c.Write(fourth[half:]); err != nil {
		t.Fatal(err)
	}
	if id, v := c.recv(); id != 4 || v != engine.InitialValue(100) || len(c.results) != len(ops) {
		t.Fatalf("fourth reply: id %d, first value %d, %d results", id, v, len(c.results))
	}
}

// BenchmarkServeRoundTrip times one connection pipelining 32 one-op
// requests over loopback to the allocation pins' volatile fixture, and
// reports the server's socket writes per request. One op is one burst
// of 32 round trips.
func BenchmarkServeRoundTrip(b *testing.B) {
	const n = 32
	f := startFixture(b, 256, 1, 32, 0, false)
	nc, err := net.Dial("tcp", f.addr.String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nc.Close() })
	req := burst(n)
	br := bufio.NewReader(nc)
	var scratch []byte
	roundTrip := func() {
		if _, err := nc.Write(req); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var typ wire.Type
			_, typ, _, scratch, err = wire.ReadFrame(br, scratch)
			if err != nil || typ != wire.TReply {
				b.Fatalf("reply %d: type %v, %v", i, typ, err)
			}
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	writes := server.SocketWrites.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	b.ReportMetric(float64(server.SocketWrites.Load()-writes)/float64(b.N*n), "writes/req")
}
