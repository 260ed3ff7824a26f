package tm_test

import (
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

func TestKindString(t *testing.T) {
	if tm.KindUpdate.String() != "update" || tm.KindReadOnly.String() != "read-only" {
		t.Fatalf("Kind strings: %q, %q", tm.KindUpdate, tm.KindReadOnly)
	}
}

func TestAbortKindOf(t *testing.T) {
	cases := map[htm.AbortCode]stats.AbortKind{
		htm.CodeTxConflict:    stats.AbortTransactional,
		htm.CodeNonTxConflict: stats.AbortNonTransactional,
		htm.CodeCapacity:      stats.AbortCapacity,
		htm.CodeExplicit:      stats.AbortNonTransactional,
		htm.AbortCode(99):     stats.AbortOther,
	}
	for code, want := range cases {
		if got := tm.AbortKindOf(code); got != want {
			t.Errorf("AbortKindOf(%v) = %v, want %v", code, got, want)
		}
	}
}

func TestOpsAdapters(t *testing.T) {
	heap := memsim.NewHeapLines(64)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(1, 1)})
	th := m.Thread(0)
	a := heap.AllocLine()

	// PlainOps round-trip.
	po := tm.PlainOps{Th: th}
	po.Write(a, 5)
	if po.Read(a) != 5 {
		t.Fatal("PlainOps round-trip failed")
	}

	// A hardware transaction as Ops, round-trip.
	if ab := htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		var to tm.Ops = tx
		to.Write(a, 6)
		if to.Read(a) != 6 {
			t.Fatal("*htm.Tx round-trip failed")
		}
	}); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
	if heap.Load(a) != 6 {
		t.Fatal("*htm.Tx write not committed")
	}

	// The read-only path forwards reads and rejects writes.
	var ro tm.Ops = th.ReadOnly()
	if ro.Read(a) != 6 {
		t.Fatal("read-only read failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("read-only Write did not panic")
		}
	}()
	ro.Write(a, 7)
}
