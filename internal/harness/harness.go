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

// maxWindows caps how many measurement windows Run spends waiting for a
// first commit.
const maxWindows = 10

// Run drives `threads` workers against sys for the given windows. Each
// worker repeatedly invokes the op closure returned by mkWorker for its
// thread id. Only activity inside the measurement window is reported.
//
// A busy host can hold the workers off the CPU for a whole short window.
// A window that ends with no commit is therefore extended by another of
// the same length, up to maxWindows in all, and the Result carries the
// time actually measured, so the throughput is still commits over
// elapsed time. A window with a commit ends on time.
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
	var after stats.Stats
	for range maxWindows {
		time.Sleep(measure)
		if after = sys.Collector().Snapshot(); after.Commits > before.Commits {
			break
		}
	}
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
