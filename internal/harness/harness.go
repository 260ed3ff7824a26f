// Package harness is the one measuring loop: it drives worker closures
// against a tm.System for a timed window after a warm-up (Run) or for a
// fixed op count (RunOps) and reports the window's statistics delta as
// a structured Result. What to build and measure is the registry's
// business (internal/experiments); rendering lives in internal/results.
package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// Result is one (system, thread-count) measurement.
type Result struct {
	System     string
	Threads    int
	Elapsed    time.Duration
	Stats      stats.Stats // measurement-window delta
	Throughput float64     // committed transactions per second
}

// AbortPercent returns the share of attempts aborted with kind, in
// percent — the paper's abort-breakdown panels.
func (r Result) AbortPercent(kind stats.AbortKind) float64 {
	return 100 * r.Stats.AbortShare(kind)
}

// Run drives `threads` workers against sys for the given windows. Each
// worker repeatedly invokes the op closure returned by mkWorker for its
// thread id. Only activity inside the measurement window is reported.
func Run(sys tm.System, threads int, warmup, measure time.Duration, mkWorker func(thread int) func()) Result {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			op := mkWorker(id)
			for !stop.Load() {
				op()
			}
		}(id)
	}
	time.Sleep(warmup)
	before := sys.Collector().Snapshot()
	start := time.Now()
	time.Sleep(measure)
	after := sys.Collector().Snapshot()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	return result(sys, threads, elapsed, after.Sub(before))
}

// RunOps drives the workers for a fixed op count per thread instead of a
// time window (used by deterministic tests and testing.B benchmarks).
func RunOps(sys tm.System, threads, opsPerThread int, mkWorker func(thread int) func()) Result {
	before := sys.Collector().Snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			op := mkWorker(id)
			for i := 0; i < opsPerThread; i++ {
				op()
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return result(sys, threads, elapsed, sys.Collector().Snapshot().Sub(before))
}

func result(sys tm.System, threads int, elapsed time.Duration, delta stats.Stats) Result {
	return Result{
		System:     sys.Name(),
		Threads:    threads,
		Elapsed:    elapsed,
		Stats:      delta,
		Throughput: float64(delta.Commits) / elapsed.Seconds(),
	}
}
