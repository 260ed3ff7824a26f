package experiments

import (
	"fmt"

	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/hashmap"
	"sihtm/internal/workload/tpcc"
	"sihtm/internal/workload/vacation"
	"sihtm/internal/workload/ycsb"
)

// A workload builds one measurable point: a fresh heap and machine,
// populated, with the workers that drive it and the check that holds
// afterwards. It is deterministic in its arguments — two calls give
// word-identical heaps — which is what `repro recover` and a served
// node's followers rely on: each rebuilds the base image by calling the
// workload again. sc has its defaults applied.
//
// The four workload families and the synthetic capacity loop are stated
// once each below; every registry entry is an axis of points
// over them, measured by the one runPoint.
type workload func(sc Scale, threads int) (*built, error)

// built is one workload build.
type built struct {
	machine *htm.Machine
	// backend is set when the workload runs through the engine: what a
	// wire server serves and a durable node decorates.
	backend engine.Backend
	// workers binds the build to the system that will run it.
	workers func(sys tm.System) func(thread int) func()
	// check verifies the workload's invariants on the quiescent state.
	check func() error
}

// point is one x-axis position of an in-process entry.
type point struct {
	// param labels a swept-parameter point ("footprint=96"); empty on a
	// thread ladder.
	param   string
	threads int
	w       workload
	// short is the capacity cell's window: a quarter of the warm-up and
	// half the measurement, its single-threaded loop needing neither.
	short bool
}

// ladder is the axis of the thread-ladder entries: w at every rung the
// scale admits.
func ladder(w workload) func(Scale) []point {
	return func(sc Scale) []point {
		var ps []point
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			ps = append(ps, point{threads: n, w: w})
		}
		return ps
	}
}

// hashmapSpec is the paper's hash-map benchmark (§4.1): large footprint
// = 200 elements/bucket, short = 50; low contention = 1000 buckets,
// high = 10; read-only share 90% or 50%.
type hashmapSpec struct {
	buckets, chain, roPct int
	// seed fixes the generator seed; 0 derives it from the thread count
	// (the figures' rule).
	seed uint64
	// tmcam overrides the per-core TMCAM capacity in lines (0 = 64).
	tmcam int
}

func (h hashmapSpec) params() string {
	return fmt.Sprintf("buckets=%d chain=%d ro=%d%%", h.buckets, h.chain, h.roPct)
}

func (h hashmapSpec) build(_ Scale, threads int) (*built, error) {
	cfg := hashmap.BenchConfig{
		Buckets:           h.buckets,
		ElementsPerBucket: h.chain, // the swept footprint: no scale shrinks it
		ReadOnlyPercent:   h.roPct,
		Seed:              h.seed,
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(threads)*31 + 7
	}
	heap := memsim.NewHeapLines(cfg.HeapLinesNeeded() + (1 << 14))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper(), TMCAMLines: h.tmcam})
	bench, err := hashmap.NewBenchmark(heap, cfg)
	if err != nil {
		return nil, err
	}
	initial := bench.Map.Size()
	return &built{
		machine: m,
		workers: func(sys tm.System) func(int) func() {
			return func(thread int) func() { return bench.NewWorker(sys, thread).Op }
		},
		check: func() error {
			size := bench.Map.Size()
			if size < initial-2*threads || size > initial+2*threads {
				return fmt.Errorf("hash-map size drifted %d → %d", initial, size)
			}
			return nil
		},
	}, nil
}

// tpccSpec is the paper's TPC-C benchmark (§4.2).
type tpccSpec struct {
	mix tpcc.Mix
	// warehouses fixes the warehouse count; 0 is the low-contention rule:
	// threads get their own warehouses, capped at 16/WorkloadDiv. The
	// high-contention panels share 1.
	warehouses int
	// seed fixes the generator seed; 0 derives it from the thread count.
	seed uint64
	// topo overrides the machine (zero = the paper's 10 cores × SMT-8).
	topo topology.Topology
}

func (t tpccSpec) params() string {
	contention := "high (1 warehouse)"
	if t.warehouses == 0 {
		contention = "low (warehouse/thread)"
	}
	mixName := "standard"
	if t.mix == tpcc.ReadDominatedMix {
		mixName = "read-dominated"
	}
	return fmt.Sprintf("mix=%s contention=%s", mixName, contention)
}

func (t tpccSpec) build(sc Scale, threads int) (*built, error) {
	cfg := tpcc.Config{Warehouses: t.warehouses, ScaleDiv: 10 * sc.WorkloadDiv, Seed: t.seed}
	if cfg.Warehouses == 0 {
		cfg.Warehouses = max(min(threads, 16/sc.WorkloadDiv), 1)
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(threads)*17 + 3
	}
	topo := t.topo
	if topo == (topology.Topology{}) {
		topo = topology.Paper()
	}
	heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	m := htm.NewMachine(heap, htm.Config{Topology: topo})
	db, err := tpcc.NewDB(heap, cfg)
	if err != nil {
		return nil, err
	}
	return &built{
		machine: m,
		workers: func(sys tm.System) func(int) func() {
			return func(thread int) func() {
				w, err := db.NewWorker(sys, thread, t.mix)
				if err != nil {
					panic(err)
				}
				return func() { w.Op() }
			}
		},
		check: db.CheckConsistency,
	}, nil
}

// ycsbSpec is one YCSB-style KV mix over an engine backend.
type ycsbSpec struct {
	id, title string
	workload  ycsb.Workload
	backend   string // "hashmap" or "btree"
	baseKeys  int
	chain     int // hashmap: target chain length (buckets = keys/chain)
	opsPerTx  int
	// theta and uniform pin the key distribution (the Zipfian sweep; zero
	// values keep the mix's default zipf(0.99)), and seed the generator
	// seed (0 derives it from the thread count).
	theta   float64
	uniform bool
	seed    uint64
}

// keys is the populated keyspace at sc.
func (y ycsbSpec) keys(sc Scale) int { return scaledKeys(y.baseKeys, sc, 128) }

// spec is the engine spec of one point — shared by the build and by the
// remote clients that must draw keys the server holds.
func (y ycsbSpec) spec(sc Scale, threads int) (engine.Spec, error) {
	seed := y.seed
	if seed == 0 {
		seed = uint64(threads)*19 + 5
	}
	return ycsb.Spec(ycsb.Config{
		Workload:    y.workload,
		Keys:        y.keys(sc),
		Theta:       y.theta,
		UniformKeys: y.uniform,
		OpsPerTx:    y.opsPerTx,
		Seed:        seed,
	})
}

func (y ycsbSpec) build(sc Scale, threads int) (*built, error) {
	spec, err := y.spec(sc, threads)
	if err != nil {
		return nil, err
	}
	var (
		heap    *memsim.Heap
		backend engine.Backend
	)
	if y.backend == "btree" {
		heap = memsim.NewHeapLines(engine.BTreeHeapLines(spec))
		backend = engine.NewBTreeBackend(heap)
	} else {
		buckets := max(spec.Keys/y.chain, 1)
		heap = memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
		backend = engine.NewHashmapBackend(heap, buckets)
	}
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	engine.Populate(backend, spec)
	d, err := engine.New(spec, backend)
	if err != nil {
		return nil, err
	}
	return &built{
		machine: m,
		backend: backend,
		workers: d.Workers,
		check:   func() error { return engineCheck(backend, spec.Keys) },
	}, nil
}

// engineCheck verifies a backend after a run: structural invariants
// plus exact population conservation for insert/delete-free mixes (all
// the YCSB mixes only read and overwrite, so the key count must not
// move).
func engineCheck(backend engine.Backend, keys int) error {
	if err := backend.Check(); err != nil {
		return err
	}
	if got := population(backend); got != keys {
		return fmt.Errorf("population drifted: %d keys, want %d", got, keys)
	}
	return nil
}

// population counts the keys a YCSB backend holds.
func population(backend engine.Backend) int {
	switch b := backend.(type) {
	case *engine.HashmapBackend:
		return b.Map().Size()
	case *engine.BTreeBackend:
		return b.Tree().Count(b.Direct())
	}
	panic(fmt.Sprintf("experiments: no key count for %T", backend))
}

// vacationSpec is one configuration of the vacation travel-reservation
// application.
type vacationSpec struct {
	id, title                    string
	queryN, rangePct             int
	browse, reserve, del, upd    int
	baseRelations, baseCustomers int
}

func (v vacationSpec) build(sc Scale, threads int) (*built, error) {
	cfg := vacation.Config{
		Relations:         scaledKeys(v.baseRelations, sc, 64),
		Customers:         scaledKeys(v.baseCustomers, sc, 16),
		QueryN:            v.queryN,
		QueryRangePct:     v.rangePct,
		BrowsePct:         v.browse,
		ReservePct:        v.reserve,
		DeleteCustomerPct: v.del,
		UpdateTablesPct:   v.upd,
		Seed:              uint64(threads)*23 + 9,
	}
	heap, m := machine(cfg.HeapLinesNeeded())
	mgr, err := vacation.NewManager(heap, cfg)
	if err != nil {
		return nil, err
	}
	return &built{
		machine: m,
		workers: func(sys tm.System) func(int) func() {
			return func(thread int) func() {
				w, err := mgr.NewWorker(sys, thread)
				if err != nil {
					panic(err)
				}
				return func() { w.Op() }
			}
		},
		check: mgr.CheckConsistency,
	}, nil
}

// capacityWorkload is the synthetic loop of ablation A1: one update
// transaction reading footprint lines and writing a single one.
func capacityWorkload(footprint int) workload {
	return func(Scale, int) (*built, error) {
		heap, m := machine(footprint*4 + 1<<12)
		lines := make([]memsim.Addr, footprint)
		for i := range lines {
			lines[i] = heap.AllocLine()
		}
		out := heap.AllocLine()
		return &built{
			machine: m,
			workers: func(sys tm.System) func(int) func() {
				return func(thread int) func() {
					return func() {
						sys.Atomic(thread, tm.KindUpdate, func(ops tm.Ops) {
							var sum uint64
							for _, a := range lines {
								sum += ops.Read(a)
							}
							ops.Write(out, sum)
						})
					}
				}
			},
			check: func() error { return nil },
		}, nil
	}
}

// runPoint measures one point under system: build, make the system,
// drive it for the scale's windows with the one measuring loop, check.
func runPoint(p point, system string, sc Scale) (harness.Result, error) {
	fail := func(err error) (harness.Result, error) { return harness.Result{}, err }
	b, err := p.w(sc, p.threads)
	if err != nil {
		return fail(err)
	}
	sys, err := NewSystem(system, b.machine, b.machine.Heap(), p.threads)
	if err != nil {
		return fail(err)
	}
	warmup, measure := sc.Warmup, sc.Measure
	if p.short {
		warmup, measure = warmup/4, measure/2
	}
	hr := harness.Run(sys, p.threads, warmup, measure, b.workers(sys))
	// Label with the registry's system key: variant cells (the killer
	// ablation) compare two configurations that share a Name().
	hr.System = system
	if err := b.check(); err != nil {
		return fail(fmt.Errorf("post-run check: %w", err))
	}
	return hr, nil
}
