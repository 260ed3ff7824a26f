package harness_test

import (
	"testing"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

func newSIHTM(threads int) (tm.System, *memsim.Heap) {
	heap := memsim.NewHeapLines(1 << 10)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
	return sihtm.NewSystem(m, threads, sihtm.Config{}), heap
}

func TestRunMeasuresOnlyTheWindow(t *testing.T) {
	sys, heap := newSIHTM(2)
	x := heap.AllocLine()
	r := harness.Run(sys, 2, 20*time.Millisecond, 100*time.Millisecond, func(thread int) func() {
		return func() {
			sys.Atomic(thread, tm.KindUpdate, func(ops tm.Ops) {
				ops.Write(x, ops.Read(x)+1)
			})
		}
	})
	if r.System != "si-htm" || r.Threads != 2 {
		t.Fatalf("result identity: %+v", r)
	}
	if r.Stats.Commits == 0 {
		t.Fatal("no commits measured")
	}
	// The window delta must be smaller than the total (warm-up excluded).
	total := sys.Collector().Snapshot()
	if r.Stats.Commits >= total.Commits {
		t.Fatalf("window commits %d >= total %d; warm-up not excluded", r.Stats.Commits, total.Commits)
	}
	if r.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestRunOpsIsExact(t *testing.T) {
	sys, heap := newSIHTM(3)
	x := heap.AllocLine()
	r := harness.RunOps(sys, 3, 100, func(thread int) func() {
		return func() {
			sys.Atomic(thread, tm.KindUpdate, func(ops tm.Ops) {
				ops.Write(x, ops.Read(x)+1)
			})
		}
	})
	if r.Stats.Commits != 300 {
		t.Fatalf("commits = %d, want 300", r.Stats.Commits)
	}
	if got := heap.Load(x); got != 300 {
		t.Fatalf("counter = %d, want 300", got)
	}
}

func TestAbortPercent(t *testing.T) {
	var r harness.Result
	r.Stats.Commits = 50
	r.Stats.Aborts[stats.AbortCapacity] = 50
	if got := r.AbortPercent(stats.AbortCapacity); got != 50 {
		t.Fatalf("AbortPercent = %v, want 50", got)
	}
}
