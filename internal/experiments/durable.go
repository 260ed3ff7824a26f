package experiments

import (
	"fmt"
	"os"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/node"
	"sihtm/internal/results"
	"sihtm/internal/server"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/vacation"
)

// The durable scenario entries measure the engine with the durability
// subsystem attached: every update transaction's write set is captured
// at the commit hook, sequenced into the write-ahead log, group-commit
// fsynced, and acknowledged before Atomic returns; fuzzy checkpoints
// run concurrently with the measured window. Each cell also verifies
// recovery end-to-end: after the run, the scenario is rebuilt on a
// fresh heap, restored from checkpoint + log, and compared word-for-
// word against the live heap before the workload invariants are
// re-checked on the recovered state.

// durableWindowDefault is the (inert) group-commit window the
// durable-ycsb-a and durable-vacation entries pass.
const durableWindowDefault = 500 * time.Microsecond

// durableWindows is the window ladder of durable-window.
var durableWindows = []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}

// startHeadlessDurable starts a headless durable node — store and fuzzy
// checkpointer, no wire server — in a transient run directory, for the
// cells that run transactions on node.System in process. backend may be
// nil. cleanup shuts the node down and removes the directory.
func startHeadlessDurable(m *htm.Machine, backend engine.Backend, sys tm.System,
	window, ckptEvery time.Duration) (n *node.Node, dir string, cleanup func(), err error) {
	dir, err = os.MkdirTemp("", "sihtm-durable-")
	if err != nil {
		return nil, "", nil, err
	}
	n, err = node.Start(node.Config{
		Machine:   m,
		Server:    server.Config{Backend: backend, System: sys},
		Dir:       dir,
		Durable:   durable.Config{Window: window, WaitAck: true},
		CkptEvery: ckptEvery,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	return n, dir, func() { n.Shutdown(); os.RemoveAll(dir) }, nil
}

// compareHeaps verifies two heaps hold identical images.
func compareHeaps(live, recovered *memsim.Heap) error {
	if live.Size() != recovered.Size() {
		return fmt.Errorf("heap geometry differs: %d vs %d words", live.Size(), recovered.Size())
	}
	for a := 0; a < live.Size(); a++ {
		if w, g := live.Load(memsim.Addr(a)), recovered.Load(memsim.Addr(a)); w != g {
			return fmt.Errorf("recovered heap differs at word %d: %d, want %d", a, g, w)
		}
	}
	return nil
}

// durableYCSBPoint runs one (system × threads × window) durable YCSB-A
// measurement including the post-run recovery verification, and
// returns the harness result plus the achieved group-commit batch size.
func durableYCSBPoint(y ycsbSpec, sc Scale, system string, threads int, window time.Duration) (harness.Result, float64, error) {
	fail := func(err error) (harness.Result, float64, error) { return harness.Result{}, 0, err }
	m, backend, d, err := y.build(sc, threads)
	if err != nil {
		return fail(err)
	}
	sys, err := NewSystem(system, m, m.Heap(), threads)
	if err != nil {
		return fail(err)
	}
	n, dir, cleanup, err := startHeadlessDurable(m, backend, sys, window, sc.Measure/3)
	if err != nil {
		return fail(err)
	}
	defer cleanup()

	hr := harness.Run(n.System, threads, sc.Warmup, sc.Measure, d.Workers(n.System))
	hr.System = system
	// engineCheck on the durable wrapper runs the inner structural
	// invariants plus the log force (DurableBackend.Check), then unwraps
	// for the population-conservation count.
	if err := engineCheck(n.Backend, d.Spec().Keys); err != nil {
		return fail(err)
	}
	st := n.Store.Log().Stats()
	// Shutdown stops the checkpointer (reporting a failed checkpoint) and
	// closes the log; recovery then reads what a restart would.
	if err := n.Shutdown(); err != nil {
		return fail(err)
	}
	if err := verifyRecovery(y, sc, threads, dir, m.Heap()); err != nil {
		return fail(err)
	}
	batch := float64(st.Records)
	if st.Fsyncs > 0 {
		batch = float64(st.Records) / float64(st.Fsyncs)
	}
	return hr, batch, nil
}

// durableYCSBEntry is durable YCSB-A: the update-heavy mix with full
// durability (capture, group commit, ack) across the thread ladder.
func durableYCSBEntry() Entry {
	y := ycsbA
	e := Entry{
		ID:           "durable-ycsb-a",
		Title:        "Durable YCSB-A: group-commit WAL + fuzzy checkpoints + post-run recovery check",
		Workload:     "durable",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("ycsb-a window=%s ack=fsync ckpt=fuzzy", durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			hr, _, err := durableYCSBPoint(y, sc, system, n, durableWindowDefault)
			if err != nil {
				return fmt.Errorf("durable-ycsb-a %s/%d: %w", system, n, err)
			}
			hook(e.record("", hr))
		}
		return nil
	}
	return e
}

// durableWindowEntry runs durable YCSB-A at a fixed thread count over
// a ladder of durable.Config.Window values. The window is inert — the
// log flushes the moment a record is pending and the fsync in flight
// forms the next group (docs/durability.md §3) — so the four points run
// one configuration four times: the batch size in each point's
// parameter string is what back-to-back fsyncs group on their own, and
// the spread between the points is the cell's noise floor. The ladder
// stays so the ids and parameter strings of earlier artifacts line up.
func durableWindowEntry() Entry {
	y := ycsbA
	const threads = 8
	e := Entry{
		ID:       "durable-window",
		Title:    "Group-commit window sweep: durable YCSB-A throughput vs the (inert) fsync window (8 threads)",
		Workload: "durable",
		Systems:  []string{"si-htm", "htm"},
		Params:   fmt.Sprintf("ycsb-a windows=%v threads=%d ack=fsync", durableWindows, threads),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		n := threads
		if sc.MaxThreads > 0 && n > sc.MaxThreads {
			n = sc.MaxThreads
		}
		for _, w := range durableWindows {
			hr, batch, err := durableYCSBPoint(y, sc, system, n, w)
			if err != nil {
				return fmt.Errorf("durable-window %s/%s: %w", system, w, err)
			}
			hook(e.record(fmt.Sprintf("window=%s batch=%.1f", w, batch), hr))
		}
		return nil
	}
	return e
}

// durableVacationPoint runs one durable vacation measurement including
// the recovery verification (conservation invariant on the recovered
// state).
func durableVacationPoint(v vacationSpec, sc Scale, system string, threads int) (harness.Result, error) {
	fail := func(err error) (harness.Result, error) { return harness.Result{}, err }
	cfg := v.config(sc, threads)
	heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	mgr, err := vacation.NewManager(heap, cfg)
	if err != nil {
		return fail(err)
	}
	sys, err := NewSystem(system, m, heap, threads)
	if err != nil {
		return fail(err)
	}
	n, dir, cleanup, err := startHeadlessDurable(m, nil, sys, durableWindowDefault, sc.Measure/3)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	mkWorker := func(thread int) func() {
		w, err := mgr.NewWorker(n.System, thread)
		if err != nil {
			panic(err)
		}
		return func() { w.Op() }
	}

	hr := harness.Run(n.System, threads, sc.Warmup, sc.Measure, mkWorker)
	hr.System = system
	if err := mgr.CheckConsistency(); err != nil {
		return fail(err)
	}
	// Shutdown stops the checkpointer (reporting a failed checkpoint) and
	// closes the log, which flushes it.
	if err := n.Shutdown(); err != nil {
		return fail(err)
	}

	// Recovery: rebuild the database deterministically, restore, compare
	// and re-verify the conservation invariant on the recovered heap.
	heap2 := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	mgr2, err := vacation.NewManager(heap2, cfg)
	if err != nil {
		return fail(err)
	}
	if _, err := durable.Recover(heap2, node.CkptPath(dir), node.LogPath(dir)); err != nil {
		return fail(err)
	}
	if err := compareHeaps(heap, heap2); err != nil {
		return fail(err)
	}
	if err := mgr2.CheckConsistency(); err != nil {
		return fail(fmt.Errorf("recovered state: %w", err))
	}
	return hr, nil
}

// durableVacationEntry is the durable vacation scenario (low-contention
// configuration) across the thread ladder.
func durableVacationEntry() Entry {
	v := vacationSpecs[0] // vacation-low
	e := Entry{
		ID:           "durable-vacation",
		Title:        "Durable vacation: reservations with group-commit WAL, conservation re-checked after replay",
		Workload:     "durable",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("vacation-low window=%s ack=fsync ckpt=fuzzy", durableWindowDefault),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = sc.withDefaults()
		for _, n := range sc.threads(topology.PaperThreadLadder) {
			hr, err := durableVacationPoint(v, sc, system, n)
			if err != nil {
				return fmt.Errorf("durable-vacation %s/%d: %w", system, n, err)
			}
			hook(e.record("", hr))
		}
		return nil
	}
	return e
}

// durableEntries builds the durability scenario entries in
// presentation order.
func durableEntries() []Entry {
	return []Entry{durableYCSBEntry(), durableVacationEntry(), durableWindowEntry()}
}
