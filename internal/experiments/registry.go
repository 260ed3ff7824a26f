package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/results"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// Entry is one row of the experiment registry: a declarative description
// of a figure panel or ablation — its identity, workload, systems and
// thread ladder are enumerable without running anything — plus the axis
// of in-process points RunCell measures for one (entry × system) column.
type Entry struct {
	// ID is the registry key ("fig6-low", "capacity", ...).
	ID string
	// Figure is the paper figure reproduced (6–10; 0 for ablations).
	Figure int
	// Panel is the figure's contention panel ("low", "high"; "" for
	// ablations).
	Panel string
	// Title is the human-readable description.
	Title string
	// Workload names the workload family: "hashmap", "tpcc", "synthetic".
	Workload string
	// Systems are the concurrency controls compared, in display order.
	Systems []string
	// ThreadLadder is the x-axis before Scale capping; nil for ablations
	// that sweep a parameter at a fixed thread count.
	ThreadLadder []int
	// Params summarizes fixed workload parameters for `repro list`
	// (e.g. "buckets=1000 chain=200 ro=90%").
	Params string

	// axis is the entry's x-axis as points over the workload table, each
	// measured by runPoint.
	axis func(Scale) []point
}

// RunCell measures one (entry × system) cell — the unit of parallelism
// in the reproduction pipeline — and returns its records. hook (may be
// nil) streams each record as it is produced.
func (e Entry) RunCell(system string, sc Scale, hook func(results.Record)) ([]results.Record, error) {
	known := false
	for _, s := range e.Systems {
		if s == system {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("experiments: %s has no system %q (systems: %v)", e.ID, system, e.Systems)
	}
	var recs []results.Record
	collect := func(r results.Record) {
		recs = append(recs, r)
		if hook != nil {
			hook(r)
		}
	}
	if err := e.runAxis(system, sc.withDefaults(), collect); err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", e.ID, system, err)
	}
	return recs, nil
}

// where names a point inside its cell for error messages.
func where(threads int, param string) string {
	if param == "" {
		return fmt.Sprintf("%d threads", threads)
	}
	return fmt.Sprintf("%d threads, %s", threads, param)
}

// runAxis is the cell runner: one runPoint per axis position.
func (e Entry) runAxis(system string, sc Scale, hook func(results.Record)) error {
	for _, p := range e.axis(sc) {
		hr, err := runPoint(p, system, sc)
		if err != nil {
			return fmt.Errorf("%s: %w", where(p.threads, p.param), err)
		}
		hook(e.record(p.param, hr))
	}
	return nil
}

// BuildPoint builds the entry's workload at an arbitrary thread count
// — the first point of its axis — and binds it to a fresh system: what
// bench_test.go drives through testing.B's op-count loop.
func (e Entry) BuildPoint(system string, threads int, sc Scale) (sys tm.System, mkWorker func(thread int) func(), check func() error, err error) {
	sc = sc.withDefaults()
	b, err := e.axis(sc)[0].w(sc, threads)
	if err != nil {
		return nil, nil, nil, err
	}
	if sys, err = NewSystem(system, b.machine, b.machine.Heap(), threads); err != nil {
		return nil, nil, nil, err
	}
	return sys, b.workers(sys), b.check, nil
}

// Run measures every system of the entry sequentially. hook may be nil.
func (e Entry) Run(sc Scale, hook func(results.Record)) ([]results.Record, error) {
	var recs []results.Record
	for _, system := range e.Systems {
		rs, err := e.RunCell(system, sc, hook)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	return recs, nil
}

// record stamps a harness result with the entry's registry coordinates.
func (e Entry) record(param string, hr harness.Result) results.Record {
	r := results.FromHarness(e.ID, e.Figure, e.Panel, e.Workload, param, hr)
	r.Order = registryRank[e.ID]
	return r
}

// registryIDs is the presentation order of the whole registry: figures
// first, then the workload-engine scenarios (YCSB, the Zipfian-θ sweep,
// vacation), then ablations A1..A5.
// Registry() builds entries in this order and records carry the rank so
// reports render in it too.
var registryIDs = append(append(append([]string{}, FigureOrder...),
	"ycsb-a", "ycsb-b", "ycsb-c", "zipf", "vacation-low", "vacation-high"),
	"capacity", "tmcam", "rofast", "killer", "smt")

// registryRank maps entry id → presentation rank.
var registryRank = func() map[string]int {
	m := make(map[string]int, len(registryIDs))
	for i, id := range registryIDs {
		m[id] = i
	}
	return m
}()

// Registry returns every experiment, figures first in presentation
// order, then the workload scenarios, then ablations. The slice is
// freshly built; callers may modify their copy.
func Registry() []Entry {
	entries := make([]Entry, 0, len(registryIDs))
	entries = append(entries, figureEntries()...)
	entries = append(entries, scenarioEntries()...)
	entries = append(entries,
		capacityEntry(),
		tmcamEntry(),
		roFastPathEntry(),
		killerEntry(),
		smtEntry(),
	)
	return entries
}

// Lookup finds a registry entry by id.
func Lookup(id string) (Entry, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// Group classifies the entry for selectors and `repro list`:
// "figures" (paper figure panels), "scenarios" (workload-engine YCSB /
// Zipf / vacation) or "ablations".
func (e Entry) Group() string {
	switch {
	case e.Figure > 0:
		return "figures"
	case scenarioWorkloads[e.Workload]:
		return "scenarios"
	default:
		return "ablations"
	}
}

// Groups lists the selector groups in presentation order.
func Groups() []string {
	return []string{"figures", "scenarios", "ablations"}
}

// Select resolves a selector to registry entries, in registry order:
//
//	"all"               every entry
//	"figures"           every figN-* entry
//	"scenarios"         the workload-engine entries (ycsb-*, zipf, vacation-*)
//	"ablations"         everything else (no figure, no scenario group)
//	"fig6" / "6"        both panels of one figure
//	"ycsb" / "vacation" every entry of the prefix
//	"fig6-low"          a single entry
//	"a,b,c"             union of selectors
func Select(selector string) ([]Entry, error) {
	all := Registry()
	want := map[string]bool{}
	for _, sel := range strings.Split(selector, ",") {
		sel = strings.TrimSpace(sel)
		if sel == "" {
			continue
		}
		if n, err := strconv.Atoi(sel); err == nil {
			sel = fmt.Sprintf("fig%d", n)
		}
		matched := false
		for _, e := range all {
			switch {
			case sel == "all",
				sel == e.Group(),
				sel == e.ID,
				strings.HasPrefix(e.ID, sel+"-"):
				want[e.ID] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("experiments: selector %q matches nothing", sel)
		}
	}
	var out []Entry
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty selector")
	}
	return out, nil
}

// Titles maps entry ids to titles (for rendering reports).
func Titles() map[string]string {
	m := map[string]string{}
	for _, e := range Registry() {
		m[e.ID] = e.Title
	}
	return m
}

// Named scale presets: the trade-off between fidelity to the paper's
// shape and wall-clock time.
var scales = map[string]Scale{
	// "paper" is the full evaluation: the complete thread ladder to 80
	// and the paper's workload sizes. Hours on a laptop.
	"paper": {},
	// "quick" keeps the interesting SMT region but shrinks workloads.
	"quick": {MaxThreads: 16, WorkloadDiv: 4, Warmup: 50 * time.Millisecond, Measure: 200 * time.Millisecond},
	// "ci" is the smoke scale: every cell runs, nothing is measured
	// carefully. Tens of seconds for the whole registry.
	"ci": {MaxThreads: 4, WorkloadDiv: 20, Warmup: 10 * time.Millisecond, Measure: 40 * time.Millisecond},
}

// ScaleByName resolves a named scale preset ("paper", "quick", "ci").
func ScaleByName(name string) (Scale, error) {
	sc, ok := scales[name]
	if !ok {
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (known: %s)", name, strings.Join(ScaleNames(), ", "))
	}
	return sc, nil
}

// ScaleNames lists the scale presets, alphabetically.
func ScaleNames() []string {
	names := make([]string, 0, len(scales))
	for n := range scales {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MachineDescription describes the simulated hardware for report
// metadata.
func MachineDescription() string {
	return fmt.Sprintf("%d cores × SMT-%d POWER8, TMCAM 64 lines/core", topology.PaperCores, topology.PaperSMTWays)
}
