// Benchmarks regenerating the paper's evaluation under `go test -bench`:
// one benchmark per figure (6–10) plus this reproduction's ablations.
// Figure benchmarks are thin views over the experiment registry
// (internal/experiments): they build the registry entries' own
// workloads (Entry.BuildPoint — the same construction cmd/repro
// measures), drive them through testing.B's op-count harness, and
// report throughput (tx/s) together with the abort breakdown per
// operation, the two panels of the paper's figures.
//
// The full thread ladder and long windows live in cmd/repro; here each
// figure is sampled at representative thread counts so the whole suite
// stays runnable as a unit. See docs/experiments.md for the mapping and
// for measured-vs-paper tables.
package sihtm_test

import (
	"fmt"
	"testing"

	"sihtm/internal/experiments"
	"sihtm/internal/harness"
	"sihtm/internal/hotbench"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// benchThreads are the ladder points sampled by the figure benchmarks:
// single-core, all-cores, and the SMT-2 region.
var benchThreads = []int{1, 8, 16}

// reportResult attaches the figure-panel metrics to the benchmark.
func reportResult(b *testing.B, r harness.Result) {
	b.Helper()
	b.ReportMetric(r.Throughput, "tx/s")
	att := float64(r.Stats.Attempts())
	if att == 0 {
		att = 1
	}
	b.ReportMetric(100*r.Stats.AbortRate(), "abort%")
	b.ReportMetric(100*float64(r.Stats.Aborts[stats.AbortCapacity])/att, "capacity%")
	b.ReportMetric(float64(r.Stats.Fallbacks), "fallbacks")
}

// benchFigure runs one registry entry through testing.B: for every
// (system, sampled thread count) cell it builds the entry's workload
// with BuildPoint and drives it with RunOps.
func benchFigure(b *testing.B, id string, sc experiments.Scale) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("no registry entry %q", id)
	}
	for _, system := range e.Systems {
		for _, threads := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", system, threads), func(b *testing.B) {
				sys, mkWorker, check, err := e.BuildPoint(system, threads, sc)
				if err != nil {
					b.Fatal(err)
				}
				perThread := b.N/threads + 1
				b.ResetTimer()
				r := harness.RunOps(sys, threads, perThread, mkWorker)
				b.StopTimer()
				reportResult(b, r)
				if err := check(); err != nil {
					b.Fatalf("post-run check: %v", err)
				}
			})
		}
	}
}

// Figure panels use the paper's workload sizes; the TPC-C panels shrink
// population (WorkloadDiv 2 → ScaleDiv 20) so setup stays benchmark-
// friendly, matching the registry's "quick"-style scaling.
var (
	benchHashmapScale = experiments.Scale{}
	benchTPCCScale    = experiments.Scale{WorkloadDiv: 2}
)

// Figure 6: hash-map, large footprint, 90% read-only.
func BenchmarkFig6HashmapLarge90ROLowContention(b *testing.B) {
	benchFigure(b, "fig6-low", benchHashmapScale)
}
func BenchmarkFig6HashmapLarge90ROHighContention(b *testing.B) {
	benchFigure(b, "fig6-high", benchHashmapScale)
}

// Figure 7: hash-map, large footprint, 50% read-only.
func BenchmarkFig7HashmapLarge50ROLowContention(b *testing.B) {
	benchFigure(b, "fig7-low", benchHashmapScale)
}
func BenchmarkFig7HashmapLarge50ROHighContention(b *testing.B) {
	benchFigure(b, "fig7-high", benchHashmapScale)
}

// Figure 8: hash-map, small footprint, 90% read-only.
func BenchmarkFig8HashmapSmall90ROLowContention(b *testing.B) {
	benchFigure(b, "fig8-low", benchHashmapScale)
}
func BenchmarkFig8HashmapSmall90ROHighContention(b *testing.B) {
	benchFigure(b, "fig8-high", benchHashmapScale)
}

// Figure 9: TPC-C standard mix.
func BenchmarkFig9TPCCStandardLowContention(b *testing.B) { benchFigure(b, "fig9-low", benchTPCCScale) }
func BenchmarkFig9TPCCStandardHighContention(b *testing.B) {
	benchFigure(b, "fig9-high", benchTPCCScale)
}

// Figure 10: TPC-C read-dominated mix.
func BenchmarkFig10TPCCReadDominatedLowContention(b *testing.B) {
	benchFigure(b, "fig10-low", benchTPCCScale)
}
func BenchmarkFig10TPCCReadDominatedHighContention(b *testing.B) {
	benchFigure(b, "fig10-high", benchTPCCScale)
}

// BenchmarkAtomic is the end-to-end hot-path benchmark: one Atomic
// update transaction of SI-HTM (lines=N), Silo (Silo/lines=N) or P8TM
// (P8TM/lines=N) reading and writing 1→4096 cache lines on a single
// thread — the whole software stack with zero contention, so it isolates
// per-footprint software overhead. The same scenarios back `repro bench`
// and BENCH_hotpath.json (see docs/performance.md).
func BenchmarkAtomic(b *testing.B) {
	for _, c := range hotbench.CasesFor("atomic") {
		b.Run(c.Sub(), func(b *testing.B) {
			run := c.Setup()
			run(1)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// Ablations A1 (capacity cliff), A2 (TMCAM size) and A5 (SMT placement)
// sweep a parameter, not the thread count: `repro run
// --id=capacity|tmcam|smt` measures them (see
// internal/experiments/ablations.go).

// Ablation A3: SI-HTM's read-only fast path on vs off.
func BenchmarkAblationNoROFastPath(b *testing.B) { benchFigure(b, "rofast", benchHashmapScale) }

// Ablation A4a: the §6 killing policy under high update contention.
func BenchmarkAblationKillerPolicy(b *testing.B) { benchFigure(b, "killer", benchHashmapScale) }

// Ablation A4b: the §6 batching policy — pairs of update transactions
// merged into one ROT + one quiescence vs run individually.
func BenchmarkAblationBatchingPolicy(b *testing.B) {
	for _, batched := range []bool{false, true} {
		name := "individual"
		if batched {
			name = "batched-pairs"
		}
		b.Run(name, func(b *testing.B) {
			heap := memsim.NewHeapLines(1 << 14)
			m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
			const threads = 8
			sys := sihtm.NewSystem(m, threads, sihtm.Config{})
			// Per-thread disjoint counters: the cost under measurement is
			// pure quiescence, which batching halves.
			counters := make([]memsim.Addr, threads)
			for i := range counters {
				counters[i] = heap.AllocLine()
			}
			b.ResetTimer()
			r := harness.RunOps(sys, threads, b.N/threads+1, func(thread int) func() {
				a := counters[thread]
				inc := func(ops tm.Ops) { ops.Write(a, ops.Read(a)+1) }
				if batched {
					pair := []func(tm.Ops){inc, inc}
					return func() { sys.AtomicBatch(thread, pair) }
				}
				return func() {
					sys.Atomic(thread, tm.KindUpdate, inc)
					sys.Atomic(thread, tm.KindUpdate, inc)
				}
			})
			b.StopTimer()
			reportResult(b, r)
		})
	}
}
