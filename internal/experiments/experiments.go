// Package experiments is the declarative registry of the paper's
// evaluation (§4, Figures 6–10) plus this reproduction's ablations.
// Every run the repository can perform is one registry Entry — metadata
// (figure, workload, systems, thread ladder, parameters) enumerable
// without running anything, plus a cell runner that measures one
// (entry × system) column and emits typed results.Record values. The
// repro CLI (cmd/repro) and the testing.B harness (bench_test.go) are
// both thin views over this one registry, so they regenerate exactly
// the same runs.
package experiments

import (
	"fmt"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/results"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/silo"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/hashmap"
	"sihtm/internal/workload/tpcc"
)

// Scale shrinks an experiment for quick runs: the zero value is the
// paper's shape (10-core ladder to 80 threads, full workload sizes);
// larger values shrink workload sizes and the thread ladder for
// CI-friendly runs. Named presets live in ScaleByName.
type Scale struct {
	// MaxThreads caps the thread ladder (0 = no cap).
	MaxThreads int
	// WorkloadDiv divides workload sizes (hash-map population, TPC-C
	// warehouse cap). 0 = 1.
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

// HashmapSweep builds the sweep for one hash-map figure panel.
//
// The paper's parameters: large footprint = 200 elements/bucket, short =
// 50; low contention = 1000 buckets, high = 10; read-only share 90% or
// 50%; systems HTM vs SI-HTM; thread ladder 1..80 on 10 cores.
func HashmapSweep(id, title string, buckets, elemsPerBucket, roPercent int, systems []string, sc Scale) *harness.Sweep {
	sc = sc.withDefaults()
	b := buckets
	e := elemsPerBucket / sc.WorkloadDiv
	if e < 2 {
		e = 2
	}
	return &harness.Sweep{
		ID:           id,
		Title:        title,
		Systems:      systems,
		ThreadCounts: sc.threads(topology.PaperThreadLadder),
		Warmup:       sc.Warmup,
		Measure:      sc.Measure,
		Setup: func(system string, threads int) (tm.System, func(int) func(), func() error, error) {
			cfg := hashmap.BenchConfig{
				Buckets:           b,
				ElementsPerBucket: e,
				ReadOnlyPercent:   roPercent,
				Seed:              uint64(threads)*31 + 7,
			}
			heap, m := machine(cfg.HeapLinesNeeded() + (1 << 14))
			bench, err := hashmap.NewBenchmark(heap, cfg)
			if err != nil {
				return nil, nil, nil, err
			}
			sys, err := NewSystem(system, m, heap, threads)
			if err != nil {
				return nil, nil, nil, err
			}
			mkWorker := func(thread int) func() {
				w := bench.NewWorker(sys, thread)
				return w.Op
			}
			initial := bench.Map.Size()
			check := func() error {
				size := bench.Map.Size()
				if size < initial-2*threads || size > initial+2*threads {
					return fmt.Errorf("hash-map size drifted %d → %d", initial, size)
				}
				return nil
			}
			return sys, mkWorker, check, nil
		},
	}
}

// TPCCSweep builds the sweep for one TPC-C figure panel.
//
// lowContention selects the warehouse count: the paper's low-contention
// runs give threads their own warehouses (capped), the high-contention
// runs share a single warehouse.
func TPCCSweep(id, title string, mix tpcc.Mix, lowContention bool, systems []string, sc Scale) *harness.Sweep {
	sc = sc.withDefaults()
	return &harness.Sweep{
		ID:           id,
		Title:        title,
		Systems:      systems,
		ThreadCounts: sc.threads(topology.PaperThreadLadder),
		Warmup:       sc.Warmup,
		Measure:      sc.Measure,
		Setup: func(system string, threads int) (tm.System, func(int) func(), func() error, error) {
			warehouses := 1
			if lowContention {
				warehouses = threads
				if warehouses > 16/sc.WorkloadDiv {
					warehouses = 16 / sc.WorkloadDiv
				}
				if warehouses < 1 {
					warehouses = 1
				}
			}
			cfg := tpcc.Config{
				Warehouses: warehouses,
				ScaleDiv:   10 * sc.WorkloadDiv,
				Seed:       uint64(threads)*17 + 3,
			}
			heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
			m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
			db, err := tpcc.NewDB(heap, cfg)
			if err != nil {
				return nil, nil, nil, err
			}
			sys, err := NewSystem(system, m, heap, threads)
			if err != nil {
				return nil, nil, nil, err
			}
			mkWorker := func(thread int) func() {
				w, err := db.NewWorker(sys, thread, mix)
				if err != nil {
					panic(err)
				}
				return func() { w.Op() }
			}
			return sys, mkWorker, db.CheckConsistency, nil
		},
	}
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

// figureSpec declares one figure panel: everything the registry needs to
// describe it and to build its sweep at any scale.
type figureSpec struct {
	id     string
	figure int
	panel  string
	title  string

	// hash-map panels (workload "hashmap"):
	buckets, chain, roPct int
	// TPC-C panels (workload "tpcc"):
	mix           tpcc.Mix
	lowContention bool
	isTPCC        bool
}

func (f figureSpec) workload() string {
	if f.isTPCC {
		return "tpcc"
	}
	return "hashmap"
}

func (f figureSpec) systems() []string {
	if f.isTPCC {
		return tpccSystems
	}
	return htmVsSIHTM
}

func (f figureSpec) params() string {
	if f.isTPCC {
		contention := "high (1 warehouse)"
		if f.lowContention {
			contention = "low (warehouse/thread)"
		}
		mixName := "standard"
		if f.mix == tpcc.ReadDominatedMix {
			mixName = "read-dominated"
		}
		return fmt.Sprintf("mix=%s contention=%s", mixName, contention)
	}
	return fmt.Sprintf("buckets=%d chain=%d ro=%d%%", f.buckets, f.chain, f.roPct)
}

func (f figureSpec) sweep(sc Scale) *harness.Sweep {
	if f.isTPCC {
		return TPCCSweep(f.id, f.title, f.mix, f.lowContention, f.systems(), sc)
	}
	return HashmapSweep(f.id, f.title, f.buckets, f.chain, f.roPct, f.systems(), sc)
}

// figureSpecs is the declarative table behind Figures 6–10 (two
// contention panels each).
var figureSpecs = []figureSpec{
	{id: "fig6-low", figure: 6, panel: "low",
		title:   "Figure 6 (left): hash-map, 90% large read-only txs, low contention",
		buckets: lowBuckets, chain: largeChain, roPct: roHeavy},
	{id: "fig6-high", figure: 6, panel: "high",
		title:   "Figure 6 (right): hash-map, 90% large read-only txs, high contention",
		buckets: highBuckets, chain: largeChain, roPct: roHeavy},
	{id: "fig7-low", figure: 7, panel: "low",
		title:   "Figure 7 (left): hash-map, 50% large read-only txs, low contention",
		buckets: lowBuckets, chain: largeChain, roPct: roBalanced},
	{id: "fig7-high", figure: 7, panel: "high",
		title:   "Figure 7 (right): hash-map, 50% large read-only txs, high contention",
		buckets: highBuckets, chain: largeChain, roPct: roBalanced},
	{id: "fig8-low", figure: 8, panel: "low",
		title:   "Figure 8 (left): hash-map, 90% small txs, low contention",
		buckets: lowBuckets, chain: shortChain, roPct: roHeavy},
	{id: "fig8-high", figure: 8, panel: "high",
		title:   "Figure 8 (right): hash-map, 90% small txs, high contention",
		buckets: highBuckets, chain: shortChain, roPct: roHeavy},
	{id: "fig9-low", figure: 9, panel: "low",
		title:  "Figure 9 (left): TPC-C standard mix, low contention",
		isTPCC: true, mix: tpcc.StandardMix, lowContention: true},
	{id: "fig9-high", figure: 9, panel: "high",
		title:  "Figure 9 (right): TPC-C standard mix, high contention",
		isTPCC: true, mix: tpcc.StandardMix},
	{id: "fig10-low", figure: 10, panel: "low",
		title:  "Figure 10 (left): TPC-C read-dominated mix, low contention",
		isTPCC: true, mix: tpcc.ReadDominatedMix, lowContention: true},
	{id: "fig10-high", figure: 10, panel: "high",
		title:  "Figure 10 (right): TPC-C read-dominated mix, high contention",
		isTPCC: true, mix: tpcc.ReadDominatedMix},
}

// FigureOrder lists figure ids in presentation order.
var FigureOrder = func() []string {
	ids := make([]string, len(figureSpecs))
	for i, f := range figureSpecs {
		ids[i] = f.id
	}
	return ids
}()

// figureEntry builds the registry entry for one figure panel.
func figureEntry(id string) Entry {
	var spec figureSpec
	for _, f := range figureSpecs {
		if f.id == id {
			spec = f
			break
		}
	}
	if spec.id == "" {
		panic("experiments: unknown figure id " + id)
	}
	e := Entry{
		ID:           spec.id,
		Figure:       spec.figure,
		Panel:        spec.panel,
		Title:        spec.title,
		Workload:     spec.workload(),
		Systems:      spec.systems(),
		ThreadLadder: topology.PaperThreadLadder,
		Params:       spec.params(),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		_, err := spec.sweep(sc).ExecuteSystem(system, func(_ string, hr harness.Result) {
			hook(e.record("", hr))
		})
		return err
	}
	return e
}

// SweepFor returns the harness sweep behind a sweep-backed registry
// entry (the figure panels, the sweep-shaped ablations and the
// thread-ladder scenarios) at the given scale — the hook bench_test.go
// uses to drive the same Setup through testing.B's op-count harness.
// Returns false for entries that are not sweeps (capacity, tmcam, smt,
// zipf).
func SweepFor(id string, sc Scale) (*harness.Sweep, bool) {
	for _, f := range figureSpecs {
		if f.id == id {
			return f.sweep(sc), true
		}
	}
	if build, ok := sweepAblations[id]; ok {
		return build(sc), true
	}
	if build, ok := scenarioSweeps[id]; ok {
		return build(sc), true
	}
	return nil, false
}
