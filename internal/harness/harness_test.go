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

// A window that sees no commit is extended a window at a time, and the
// result reports the time actually measured.
func TestRunExtendsAWindowWithNoCommit(t *testing.T) {
	const window = 5 * time.Millisecond
	sys, heap := newSIHTM(1)
	x := heap.AllocLine()
	start := time.Now()
	r := harness.Run(sys, 1, 0, window, func(int) func() {
		return func() {
			if time.Since(start) < 3*window {
				time.Sleep(time.Millisecond) // held off the CPU
				return
			}
			sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
				ops.Write(x, ops.Read(x)+1)
			})
		}
	})
	if r.Stats.Commits == 0 {
		t.Fatal("no commits measured")
	}
	if r.Elapsed < 3*window {
		t.Fatalf("Elapsed = %v, want at least the %v before the first commit", r.Elapsed, 3*window)
	}
	if want := float64(r.Stats.Commits) / r.Elapsed.Seconds(); r.Throughput != want {
		t.Fatalf("Throughput = %v, want commits over elapsed time %v", r.Throughput, want)
	}
}

// A workload that never commits ends after the stated cap of windows.
func TestRunGivesUpAfterTenWindows(t *testing.T) {
	const window = 2 * time.Millisecond
	sys, _ := newSIHTM(1)
	r := harness.Run(sys, 1, 0, window, func(int) func() {
		return func() { time.Sleep(100 * time.Microsecond) }
	})
	if r.Stats.Commits != 0 {
		t.Fatalf("commits = %d, want 0", r.Stats.Commits)
	}
	if r.Elapsed < 10*window {
		t.Fatalf("Elapsed = %v, want at least ten windows (%v)", r.Elapsed, 10*window)
	}
	if r.Elapsed > time.Second {
		t.Fatalf("Elapsed = %v: Run did not stop at ten windows", r.Elapsed)
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
