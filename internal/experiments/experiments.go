// Package experiments is the declarative registry of the paper's
// evaluation (§4, Figures 6–10) plus this reproduction's ablations.
// Every measured run is one registry Entry — metadata (figure, workload,
// systems, thread ladder, parameters) enumerable without running
// anything, plus what RunCell measures for one (entry × system) column,
// emitting typed results.Record values. An entry is an axis of points
// over the workload table (workload.go), all measured by the one
// runPoint. The repro CLI (cmd/repro) and the testing.B harness
// (bench_test.go) are both thin views over this one registry, so they
// regenerate exactly the same runs. The package also builds what `repro
// serve` hosts, drives `repro loadgen`'s open-loop point, and replays a
// served run directory for `repro recover`.
package experiments

import (
	"fmt"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/silo"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/tpcc"
)

// Scale shrinks an experiment for quick runs: the zero value is the
// paper's shape (10-core ladder to 80 threads, full workload sizes);
// larger values shrink workload sizes and the thread ladder for
// CI-friendly runs. Named presets live in ScaleByName.
//
// The rule: a scale may shrink what sizes a run — threads, windows, and
// table sizes no figure sweeps — but never a variable a figure sweeps,
// or the scaled run no longer shows the effect the figure is named for.
// The hash-map figures sweep read footprint against the TMCAM, so their
// chain length is never scaled.
type Scale struct {
	// MaxThreads caps the thread ladder (0 = no cap).
	MaxThreads int
	// WorkloadDiv divides workload sizes that no figure sweeps (TPC-C
	// table sizes and warehouse cap, scenario key counts). 0 = 1.
	WorkloadDiv int
	// Warmup and Measure override the run windows if non-zero.
	Warmup, Measure time.Duration
}

func (s Scale) withDefaults() Scale {
	if s.WorkloadDiv == 0 {
		s.WorkloadDiv = 1
	}
	if s.Warmup == 0 {
		s.Warmup = 150 * time.Millisecond
	}
	if s.Measure == 0 {
		s.Measure = 600 * time.Millisecond
	}
	return s
}

func (s Scale) threads(ladder []int) []int {
	if s.MaxThreads <= 0 {
		return ladder
	}
	var out []int
	for _, n := range ladder {
		if n <= s.MaxThreads {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{s.MaxThreads}
	}
	return out
}

// cap bounds a fixed thread count by the scale's ladder cap.
func (s Scale) cap(n int) int {
	if s.MaxThreads > 0 && n > s.MaxThreads {
		return s.MaxThreads
	}
	return n
}

// machine builds the paper's 10-core SMT-8 machine over a fresh heap.
func machine(heapLines int) (*memsim.Heap, *htm.Machine) {
	heap := memsim.NewHeapLines(heapLines)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	return heap, m
}

// NewSystem builds a named system over the given machine/heap — the one
// benchmark-name → constructor mapping shared by every binary and test
// in the repository.
func NewSystem(name string, m *htm.Machine, heap *memsim.Heap, threads int) (tm.System, error) {
	switch name {
	case "htm":
		return htmtm.NewSystem(m, threads, htmtm.Config{}), nil
	case "si-htm":
		return sihtm.NewSystem(m, threads, sihtm.Config{}), nil
	case "si-htm-noro":
		return sihtm.NewSystem(m, threads, sihtm.Config{DisableROFastPath: true}), nil
	case "si-htm-killer":
		return sihtm.NewSystem(m, threads, sihtm.Config{KillerSpins: 1 << 12}), nil
	case "p8tm":
		return p8tm.NewSystem(m, threads, p8tm.Config{}), nil
	case "silo":
		return silo.NewSystem(heap, threads), nil
	case "sgl":
		return sgl.NewSystem(m, threads), nil
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", name)
	}
}

// SystemNames lists the benchmark names NewSystem accepts.
func SystemNames() []string {
	return []string{"htm", "si-htm", "si-htm-noro", "si-htm-killer", "p8tm", "silo", "sgl"}
}

// hashmap figure parameters (paper §4.1).
const (
	largeChain  = 200
	shortChain  = 50
	lowBuckets  = 1000
	highBuckets = 10
	roHeavy     = 90
	roBalanced  = 50
)

// htmVsSIHTM are the systems in the hash-map figures.
var htmVsSIHTM = []string{"htm", "si-htm"}

// tpccSystems are the systems in the TPC-C figures (paper order).
var tpccSystems = []string{"htm", "si-htm", "p8tm", "silo"}

// figure is one figure panel's entry: the thread ladder over w.
func figure(n int, panel, title, workloadName string, systems []string, params string, w workload) Entry {
	return Entry{
		ID:           fmt.Sprintf("fig%d-%s", n, panel),
		Figure:       n,
		Panel:        panel,
		Title:        title,
		Workload:     workloadName,
		Systems:      systems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       params,
		axis:         ladder(w),
	}
}

func hashmapFigure(n int, panel, title string, h hashmapSpec) Entry {
	return figure(n, panel, title, "hashmap", htmVsSIHTM, h.params(), h.build)
}

func tpccFigure(n int, panel, title string, t tpccSpec) Entry {
	return figure(n, panel, title, "tpcc", tpccSystems, t.params(), t.build)
}

// figureEntries is the declarative table behind Figures 6–10 (two
// contention panels each), in presentation order.
func figureEntries() []Entry {
	return []Entry{
		hashmapFigure(6, "low", "Figure 6 (left): hash-map, 90% large read-only txs, low contention",
			hashmapSpec{buckets: lowBuckets, chain: largeChain, roPct: roHeavy}),
		hashmapFigure(6, "high", "Figure 6 (right): hash-map, 90% large read-only txs, high contention",
			hashmapSpec{buckets: highBuckets, chain: largeChain, roPct: roHeavy}),
		hashmapFigure(7, "low", "Figure 7 (left): hash-map, 50% large read-only txs, low contention",
			hashmapSpec{buckets: lowBuckets, chain: largeChain, roPct: roBalanced}),
		hashmapFigure(7, "high", "Figure 7 (right): hash-map, 50% large read-only txs, high contention",
			hashmapSpec{buckets: highBuckets, chain: largeChain, roPct: roBalanced}),
		hashmapFigure(8, "low", "Figure 8 (left): hash-map, 90% small txs, low contention",
			hashmapSpec{buckets: lowBuckets, chain: shortChain, roPct: roHeavy}),
		hashmapFigure(8, "high", "Figure 8 (right): hash-map, 90% small txs, high contention",
			hashmapSpec{buckets: highBuckets, chain: shortChain, roPct: roHeavy}),
		tpccFigure(9, "low", "Figure 9 (left): TPC-C standard mix, low contention",
			tpccSpec{mix: tpcc.StandardMix}),
		tpccFigure(9, "high", "Figure 9 (right): TPC-C standard mix, high contention",
			tpccSpec{mix: tpcc.StandardMix, warehouses: 1}),
		tpccFigure(10, "low", "Figure 10 (left): TPC-C read-dominated mix, low contention",
			tpccSpec{mix: tpcc.ReadDominatedMix}),
		tpccFigure(10, "high", "Figure 10 (right): TPC-C read-dominated mix, high contention",
			tpccSpec{mix: tpcc.ReadDominatedMix, warehouses: 1}),
	}
}

// FigureOrder lists figure ids in presentation order.
var FigureOrder = func() []string {
	var ids []string
	for _, e := range figureEntries() {
		ids = append(ids, e.ID)
	}
	return ids
}()
