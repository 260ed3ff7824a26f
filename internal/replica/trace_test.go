package replica

import (
	"net"
	"os"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
	"sihtm/internal/netchaos"
	"sihtm/internal/rng"
	"sihtm/internal/trace"
	"sihtm/internal/wire"
)

// traceForSeq is the deterministic seq → trace mapping the trace tests
// hang on the publisher: nonzero for every sequence.
func traceForSeq(seq uint64) uint64 { return seq ^ 0xabcd_0001_0000_0001 }

// TestChaosTracePropagation is the tracing satellite of the chaos
// suite: a fully traced stream (every record carries an id) runs
// through a seeded fault schedule of cuts, torn frames and partition
// windows. After convergence the follower's ring must hold exactly one
// repl_apply span per applied record — reconnect overlap must not
// duplicate a span, a fault must not orphan (lose) one, and every span
// must carry the id the leader's lookup stamped on its sequence.
func TestChaosTracePropagation(t *testing.T) {
	tl := newTestLeader(t, traceForSeq)
	model := make([]uint64, testHeapWords)
	r := rng.New(77)

	chaos := netchaos.NewDialer(tl.ln.Addr().String(), netchaos.Config{
		Seed:        17,
		CutAfterMin: 2, CutAfterMax: 30,
		TearProb:     0.5,
		PartitionMin: 1, PartitionMax: 4,
	})
	f := newTestFollower(t, tl, chaos.Dial)
	ring := trace.NewRing(4096)
	f.SetTraceRing(ring)
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
	if chaos.Cuts() == 0 || f.Reconnects() == 0 {
		t.Fatalf("chaos never engaged (cuts %d, reconnects %d); the test proved nothing",
			chaos.Cuts(), f.Reconnects())
	}

	perSeq := map[uint64]int{}
	for _, s := range ring.Snapshot(nil) {
		if s.Kind != trace.KReplApply {
			t.Fatalf("follower ring holds a %s span", s.Kind)
		}
		if s.Seq == 0 || s.Seq > last {
			t.Fatalf("span for sequence %d outside the applied history (last %d)", s.Seq, last)
		}
		if s.Trace != traceForSeq(s.Seq) {
			t.Fatalf("seq %d closed with trace %d, want %d", s.Seq, s.Trace, traceForSeq(s.Seq))
		}
		perSeq[s.Seq]++
	}
	for seq, n := range perSeq {
		if n > 1 {
			t.Fatalf("seq %d closed %d replication spans; reconnect overlap duplicated it", seq, n)
		}
	}
	// The 600-record history fits the ring, so coverage must be exact:
	// one span per applied record, none missing.
	if uint64(len(perSeq)) != last {
		t.Fatalf("spans cover %d of %d applied records", len(perSeq), last)
	}
}

// TestDuplicateBatchSkipsSpans forces the idempotent-resume branch
// directly on a batch built from real log bytes: redelivering an
// already-applied batch (exactly what a reconnect overlap looks like)
// must neither reapply records nor emit a second round of repl_apply
// spans, and unsampled records must never emit any.
func TestDuplicateBatchSkipsSpans(t *testing.T) {
	f, err := NewFollower(FollowerConfig{
		Heap: memsim.NewHeap(testHeapWords),
		Dial: func() (net.Conn, error) { return nil, os.ErrClosed },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ring := trace.NewRing(64)
	f.SetTraceRing(ring)

	var records []byte
	for seq := uint64(1); seq <= 3; seq++ {
		records = append(records, walRecord(t, seq, footprint.Entry{Addr: memsim.Addr(seq), Val: seq * 11})...)
	}
	payload := wire.AppendReplBatch(nil, wire.ReplBatch{
		Watermark: 3,
		Traces:    []wire.ReplTrace{{Seq: 1, Trace: 101}, {Seq: 2, Trace: 102}}, // seq 3 unsampled
		Records:   records,
	})
	b, err := wire.ParseReplBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.applyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := f.applyBatch(b); err != nil { // reconnect overlap: full redelivery
		t.Fatal(err)
	}
	if f.Watermark() != 3 || f.Applied() != 3 {
		t.Fatalf("watermark %d and %d applied after redelivery, want 3 and 3", f.Watermark(), f.Applied())
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if got := f.heap.Load(memsim.Addr(seq)); got != seq*11 {
			t.Fatalf("addr %d = %d, want %d", seq, got, seq*11)
		}
	}

	spans := ring.Snapshot(nil)
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans after redelivery, want 2 (one per traced record): %+v", len(spans), spans)
	}
	want := map[uint64]uint64{1: 101, 2: 102}
	for _, s := range spans {
		if s.Kind != trace.KReplApply {
			t.Fatalf("unexpected %s span", s.Kind)
		}
		tr, ok := want[s.Seq]
		if !ok || s.Trace != tr {
			t.Fatalf("span {seq %d, trace %d} unexpected", s.Seq, s.Trace)
		}
		delete(want, s.Seq)
	}
}
