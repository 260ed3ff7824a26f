package tmtest

import (
	"testing"

	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
)

// The conformance suite runs every isolation property against every
// concurrency control. SI-HTM is asserted to *allow* write skew (that is
// the semantics the paper proves); everything else must forbid it. The
// contended checks also run each HTM-based system with every abort
// taking the SGL fall-back.

// contendedFactories is every system at its default budget plus htm,
// si-htm and p8tm at a one-attempt budget, under which every abort takes
// the fall-back and the serial path runs beside hardware commits.
func contendedFactories() []Factory {
	return append(StandardFactories(0),
		Factory{Name: "htm/retries=1", Serializable: true, New: func(h *memsim.Heap, n int) tm.System {
			return htmtm.NewSystem(newMachine(h, 0), n, htmtm.Config{Retries: 1})
		}},
		Factory{Name: "si-htm/retries=1", Serializable: false, New: func(h *memsim.Heap, n int) tm.System {
			return sihtm.NewSystem(newMachine(h, 0), n, sihtm.Config{Retries: 1})
		}},
		Factory{Name: "p8tm/retries=1", Serializable: true, New: func(h *memsim.Heap, n int) tm.System {
			return p8tm.NewSystem(newMachine(h, 0), n, p8tm.Config{Retries: 1})
		}},
	)
}

func TestCounterConformance(t *testing.T) {
	for _, f := range contendedFactories() {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			sys := f.New(heap, 4)
			CheckCounter(t, sys, 4, 300, x, heap)
		})
	}
}

func TestSnapshotConsistencyConformance(t *testing.T) {
	for _, f := range contendedFactories() {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			y := heap.AllocLine()
			sys := f.New(heap, 4)
			CheckSnapshotConsistency(t, sys, heap, x, y, 400)
		})
	}
}

func TestRepeatableReadConformance(t *testing.T) {
	for _, f := range StandardFactories(0) {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			sys := f.New(heap, 2)
			CheckRepeatableRead(t, sys, heap, x)
		})
	}
}

func TestWriteSkewConformance(t *testing.T) {
	const rounds = 60
	for _, f := range StandardFactories(0) {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			y := heap.AllocLine()
			sys := f.New(heap, 2)
			skews := CheckWriteSkew(t, sys, heap, x, y, rounds, f.Serializable)
			if !f.Serializable && skews == 0 {
				t.Errorf("%s: no write skew in %d rounds; SI semantics should admit it", f.Name, rounds)
			}
		})
	}
}

func TestReadPromotionConformance(t *testing.T) {
	for _, f := range StandardFactories(0) {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			y := heap.AllocLine()
			sys := f.New(heap, 2)
			CheckReadPromotion(t, sys, heap, x, y, 40)
		})
	}
}

func TestFallbackConformance(t *testing.T) {
	// 8-line TMCAM; 16-line write set forces the HTM systems to the SGL.
	for _, f := range StandardFactories(8) {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			lines := make([]memsim.Addr, 16)
			for i := range lines {
				lines[i] = heap.AllocLine()
			}
			sys := f.New(heap, 2)
			CheckFallback(t, sys, heap, lines)
		})
	}
}

func TestTransfersConformance(t *testing.T) {
	for _, f := range contendedFactories() {
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			accounts := make([]memsim.Addr, 8)
			for i := range accounts {
				accounts[i] = heap.AllocLine()
			}
			sys := f.New(heap, 4)
			CheckTransfers(t, sys, heap, accounts, 4, 400)
		})
	}
}

func TestReadOnlyWriteEnforcement(t *testing.T) {
	for _, f := range StandardFactories(0) {
		if f.Name != "si-htm" && f.Name != "p8tm" {
			continue // only the uninstrumented RO fast paths enforce the promise
		}
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			sys := f.New(heap, 1)
			CheckReadOnlyWritePanics(t, sys, x)
		})
	}
}

func TestReadOnlyFastPathNeverAborts(t *testing.T) {
	for _, f := range StandardFactories(0) {
		if f.Name != "si-htm" && f.Name != "p8tm" {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			x := heap.AllocLine()
			sys := f.New(heap, 2)
			for i := 0; i < 500; i++ {
				sys.Atomic(0, tm.KindReadOnly, func(ops tm.Ops) {
					_ = ops.Read(x)
				})
			}
			s := sys.Collector().Snapshot()
			if s.CommitsRO != 500 {
				t.Errorf("%s: read-only commits = %d, want 500", f.Name, s.CommitsRO)
			}
			if s.TotalAborts() != 0 {
				t.Errorf("%s: read-only transactions aborted %d times, want 0", f.Name, s.TotalAborts())
			}
		})
	}
}

func TestPanicLeavesNothingAnnounced(t *testing.T) {
	// 8-line TMCAM; the 16-line write set takes the SGL fall-back.
	for _, f := range StandardFactories(8) {
		if f.Name != "si-htm" && f.Name != "p8tm" {
			continue // the systems that announce in a state array
		}
		t.Run(f.Name, func(t *testing.T) {
			heap := memsim.NewHeapLines(1 << 10)
			lines := make([]memsim.Addr, 16)
			for i := range lines {
				lines[i] = heap.AllocLine()
			}
			sys := f.New(heap, 2)
			CheckPanicLeavesNothingAnnounced(t, sys, heap, lines)
		})
	}
}
