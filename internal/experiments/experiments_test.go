package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/memsim"
	"sihtm/internal/results"
	"sihtm/internal/stats"
)

func quickScale() Scale {
	return Scale{
		MaxThreads:  2,
		WorkloadDiv: 20,
		Warmup:      2 * time.Millisecond,
		Measure:     20 * time.Millisecond,
	}
}

func TestRegistryIsComplete(t *testing.T) {
	entries := Registry()
	if len(entries) != 21 { // 10 figure panels + 6 scenarios + 5 ablations
		t.Fatalf("Registry() = %d entries, want 21", len(entries))
	}
	seen := map[string]bool{}
	figures := map[int]bool{}
	for _, e := range entries {
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.ID == "" || e.Title == "" || e.Workload == "" {
			t.Errorf("entry %+v missing metadata", e)
		}
		if len(e.Systems) < 2 {
			t.Errorf("entry %q compares %d systems, want >= 2", e.ID, len(e.Systems))
		}
		if e.axis == nil {
			t.Errorf("entry %q has no axis", e.ID)
		}
		if e.Figure > 0 {
			figures[e.Figure] = true
			if e.Panel != "low" && e.Panel != "high" {
				t.Errorf("figure entry %q has panel %q", e.ID, e.Panel)
			}
			if len(e.ThreadLadder) == 0 {
				t.Errorf("figure entry %q has no thread ladder", e.ID)
			}
		}
	}
	for f := 6; f <= 10; f++ {
		if !figures[f] {
			t.Errorf("figure %d not in registry", f)
		}
	}
	for _, id := range FigureOrder {
		if !seen[id] {
			t.Errorf("FigureOrder id %q not in registry", id)
		}
	}
	// Registry() must build entries in presentation order (registryIDs),
	// which is also the rank stamped onto records.
	if len(entries) != len(registryIDs) {
		t.Fatalf("registryIDs has %d ids, registry %d entries", len(registryIDs), len(entries))
	}
	for i, e := range entries {
		if e.ID != registryIDs[i] {
			t.Errorf("registry[%d] = %q, want %q (presentation order)", i, e.ID, registryIDs[i])
		}
		if registryRank[e.ID] != i {
			t.Errorf("registryRank[%q] = %d, want %d", e.ID, registryRank[e.ID], i)
		}
	}
}

func TestLookupAndSelect(t *testing.T) {
	if _, ok := Lookup("fig6-low"); !ok {
		t.Fatal("fig6-low not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}

	cases := []struct {
		sel  string
		want int
	}{
		{"all", 21},
		{"figures", 10},
		{"scenarios", 6},
		{"ablations", 5},
		{"fig6", 2},
		{"6", 2},
		{"fig9-low", 1},
		{"capacity", 1},
		{"ycsb", 3},
		{"vacation", 2},
		{"zipf", 1},
		{"fig6,fig9-low,capacity", 4},
		{"ycsb,vacation,zipf", 6},
		{"scenarios,ablations", 11},
	}
	for _, c := range cases {
		got, err := Select(c.sel)
		if err != nil {
			t.Errorf("Select(%q): %v", c.sel, err)
			continue
		}
		if len(got) != c.want {
			t.Errorf("Select(%q) = %d entries, want %d", c.sel, len(got), c.want)
		}
	}
	for _, gone := range []string{"figNaN", "durable", "net", "repl"} {
		if _, err := Select(gone); err == nil {
			t.Errorf("selector %q accepted", gone)
		}
	}
	if _, err := Select(""); err == nil {
		t.Error("empty selector accepted")
	}
}

func TestScalePresets(t *testing.T) {
	for _, name := range ScaleNames() {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("warp"); err == nil {
		t.Error("unknown scale accepted")
	}
	sc, _ := ScaleByName("paper")
	if sc.MaxThreads != 0 || sc.WorkloadDiv != 0 {
		t.Errorf("paper scale should be the zero value, got %+v", sc)
	}
}

func TestScaleThreads(t *testing.T) {
	sc := Scale{MaxThreads: 8}
	got := sc.threads([]int{1, 2, 4, 8, 16, 80})
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("threads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("threads = %v, want %v", got, want)
		}
	}
	got = Scale{MaxThreads: 0}.threads([]int{5})
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("uncapped ladder mangled: %v", got)
	}
	// A cap below the ladder yields the cap itself.
	got = Scale{MaxThreads: 3}.threads([]int{4, 8})
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("below-ladder cap: %v, want [3]", got)
	}
}

func TestNewSystemNames(t *testing.T) {
	heap, m := machine(1 << 8)
	for _, name := range SystemNames() {
		sys, err := NewSystem(name, m, heap, 1)
		if err != nil {
			t.Fatalf("NewSystem(%q): %v", name, err)
		}
		if sys == nil {
			t.Fatalf("NewSystem(%q) returned nil", name)
		}
	}
	if _, err := NewSystem("bogus", m, heap, 1); err == nil {
		t.Fatal("bogus system accepted")
	}
}

func TestRunCellRejectsUnknownSystem(t *testing.T) {
	e, _ := Lookup("fig6-low")
	if _, err := e.RunCell("silo", quickScale(), nil); err == nil {
		t.Fatal("fig6-low has no silo cell; RunCell accepted it")
	}
}

// BuildPoint — the hook bench_test.go drives through testing.B — must
// serve every entry at a thread count of the caller's choosing.
func TestBuildPointCoversInProcessEntries(t *testing.T) {
	for _, e := range Registry() {
		sys, mkWorker, check, err := e.BuildPoint(e.Systems[0], 2, quickScale())
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if sys.Threads() != 2 {
			t.Errorf("%s: system sized for %d threads, want 2", e.ID, sys.Threads())
		}
		mkWorker(1)()
		if err := check(); err != nil {
			t.Errorf("%s: check after one op: %v", e.ID, err)
		}
	}
}

// compareHeaps verifies two heaps hold identical images.
func compareHeaps(want, got *memsim.Heap) error {
	if want.Size() != got.Size() {
		return fmt.Errorf("heap geometry differs: %d vs %d words", want.Size(), got.Size())
	}
	for a := 0; a < want.Size(); a++ {
		if w, g := want.Load(memsim.Addr(a)), got.Load(memsim.Addr(a)); w != g {
			return fmt.Errorf("heaps differ at word %d: %d, want %d", a, g, w)
		}
	}
	return nil
}

// Every workload is deterministic in (scale, threads): two builds of any
// point hold word-identical heaps. Recovery, a served node's followers
// and `repro recover` rebuild their base image this way.
func TestWorkloadBuildsAreReproducible(t *testing.T) {
	sc := quickScale()
	for _, e := range Registry() {
		for _, p := range e.axis(sc) {
			first, err := p.w(sc, p.threads)
			if err != nil {
				t.Fatalf("%s %s: %v", e.ID, where(p.threads, p.param), err)
			}
			second, err := p.w(sc, p.threads)
			if err != nil {
				t.Fatalf("%s %s: %v", e.ID, where(p.threads, p.param), err)
			}
			if err := compareHeaps(first.machine.Heap(), second.machine.Heap()); err != nil {
				t.Errorf("%s %s: two builds differ: %v", e.ID, where(p.threads, p.param), err)
			}
		}
	}
}

// A workload that fails to build fails the cell, and the error says
// which point: entry id, system, thread count and param.
func TestBuildErrorNamesThePoint(t *testing.T) {
	e := Entry{
		ID:      "broken",
		Systems: []string{"htm"},
		axis: func(Scale) []point {
			return []point{{param: "x=3", threads: 2, w: func(Scale, int) (*built, error) {
				return nil, errors.New("no memory")
			}}}
		},
	}
	_, err := e.RunCell("htm", quickScale(), nil)
	if err == nil {
		t.Fatal("RunCell swallowed the build error")
	}
	for _, want := range []string{"broken", "htm", "2 threads", "x=3", "no memory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// Every registered experiment must be runnable at CI scale: every
// (entry × system) cell executes, produces records stamped with the
// entry's coordinates, and passes its post-run checks.
func TestEveryEntryRunsAtCIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every (entry × system) cell; several seconds")
	}
	sc := quickScale()
	for _, e := range Registry() {
		for _, system := range e.Systems {
			e, system := e, system
			t.Run(e.ID+"/"+system, func(t *testing.T) {
				var streamed int
				recs, err := e.RunCell(system, sc, func(results.Record) { streamed++ })
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) == 0 {
					t.Fatal("no records produced")
				}
				if streamed != len(recs) {
					t.Errorf("hook saw %d records, returned %d", streamed, len(recs))
				}
				for _, r := range recs {
					if r.Experiment != e.ID || r.System != system {
						t.Errorf("record mis-stamped: %+v", r)
					}
					if r.Workload != e.Workload {
						t.Errorf("record workload %q, want %q", r.Workload, e.Workload)
					}
					if r.Commits == 0 {
						t.Errorf("cell %s/%s point %q/%d committed nothing", e.ID, r.System, r.Param, r.Threads)
					}
				}
			})
		}
	}
}

// A miniature end-to-end run of one hash-map figure and one TPC-C
// figure across all their systems.
func TestMiniatureFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature figure runs take a few seconds")
	}
	sc := quickScale()
	for _, id := range []string{"fig6-high", "fig9-high"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("%s missing", id)
			}
			recs, err := e.Run(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			perSystem := map[string]int{}
			for _, r := range recs {
				perSystem[r.System]++
			}
			for _, s := range e.Systems {
				if perSystem[s] == 0 {
					t.Errorf("system %s produced no records", s)
				}
			}
			var b strings.Builder
			results.MarkdownThroughput(&b, e.Title, recs)
			if !strings.Contains(b.String(), "si-htm") {
				t.Errorf("markdown rendering lost systems:\n%s", b.String())
			}
		})
	}
}

// The Zipfian-θ sweep must show capacity aborts varying with skew:
// under the uniform extreme plain HTM's batched transactions overflow
// the TMCAM, and growing skew concentrates the footprint onto hot
// chains until it fits — so HTM's capacity-abort rate at θ=0 must sit
// clearly above its rate at θ=0.99, while SI-HTM stays flat at zero.
func TestZipfSkewShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run takes a few seconds")
	}
	e, ok := Lookup("zipf")
	if !ok {
		t.Fatal("zipf entry missing")
	}
	recs, err := e.Run(quickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	capRate := map[string]map[string]float64{}
	for _, r := range recs {
		if capRate[r.System] == nil {
			capRate[r.System] = map[string]float64{}
		}
		capRate[r.System][r.Param] = r.AbortPercent(r.AbortsCapacity)
	}
	uniform, skewed := capRate["htm"]["theta=0.00"], capRate["htm"]["theta=0.99"]
	if uniform < 10 {
		t.Errorf("htm capacity-abort rate at theta=0 is %.1f%%, want the uniform extreme above the cliff", uniform)
	}
	if skewed >= uniform {
		t.Errorf("htm capacity-abort rate did not fall with skew: theta=0 %.1f%% vs theta=0.99 %.1f%%", uniform, skewed)
	}
	for param, rate := range capRate["si-htm"] {
		if rate != 0 {
			t.Errorf("si-htm capacity-abort rate at %s is %.1f%%, want 0", param, rate)
		}
	}
}

// A server's admission stage coalesces pending requests into one
// System.Atomic, so the batch bound trades begin/commit amortization
// against footprint. This is that trade in process and deterministic:
// one thread drives the ycsb-a build at ci scale with batch single-op
// YCSB-A requests per transaction. Plain HTM tracks every chain read in
// the TMCAM, so it fits at batch 1 and overflows by batch 16 (the size
// loopback admission actually reaches); SI-HTM's ROT reads are
// untracked and its write set stays far below 64 lines, so it never
// aborts on capacity.
func TestAdmissionBatchCapacityShape(t *testing.T) {
	sc, err := ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.withDefaults()
	for _, system := range []string{"htm", "si-htm"} {
		t.Run(system, func(t *testing.T) {
			capAborts := map[int]uint64{}
			for _, batch := range []int{1, 4, 16} {
				y := ycsbSpecs[0]
				y.opsPerTx = batch
				b, err := y.build(sc, 1)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := NewSystem(system, b.machine, b.machine.Heap(), 1)
				if err != nil {
					t.Fatal(err)
				}
				hr := harness.RunOps(sys, 1, 500, b.workers(sys))
				if err := b.check(); err != nil {
					t.Fatalf("batch=%d: %v", batch, err)
				}
				capAborts[batch] = hr.Stats.Aborts[stats.AbortCapacity]
			}
			t.Logf("capacity aborts over 500 transactions, by batch: %v", capAborts)
			if system == "si-htm" {
				for batch, n := range capAborts {
					if n != 0 {
						t.Errorf("%d capacity aborts at batch %d, want 0", n, batch)
					}
				}
				return
			}
			if capAborts[1] != 0 {
				t.Errorf("%d capacity aborts at batch 1, want 0", capAborts[1])
			}
			if capAborts[16] == 0 {
				t.Error("no capacity aborts at batch 16, want the TMCAM overflowed")
			}
		})
	}
}

// The capacity-cliff ablation must show the cliff: plain HTM's
// capacity-abort rate at 96 lines is high while SI-HTM's stays zero.
func TestCapacityCliffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run takes a few seconds")
	}
	e, ok := Lookup("capacity")
	if !ok {
		t.Fatal("capacity entry missing")
	}
	recs, err := e.Run(quickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawHTMCliff, sawSIFlat bool
	for _, r := range recs {
		if r.Param != "footprint=96" {
			continue
		}
		if r.System == "htm" && r.AbortsCapacity > 0 {
			sawHTMCliff = true
		}
		if r.System == "si-htm" && r.AbortsCapacity == 0 {
			sawSIFlat = true
		}
	}
	if !sawHTMCliff {
		t.Errorf("HTM capacity cliff at 96 lines not visible: %+v", recs)
	}
	if !sawSIFlat {
		t.Errorf("SI-HTM not flat at 96 lines: %+v", recs)
	}
}

// Scale's rule, that a scale never shrinks the variable a figure
// sweeps, guarded where it matters most: at ci scale fig6-low keeps the
// paper's 200-node chains, so one htm thread's lookups overflow the
// 64-line TMCAM (every node is a line), while si-htm's untracked ROT
// and read-only reads never do. A scale that shortened the chains again
// would read 0 % for htm here, as the committed artifact once did.
func TestCIScaleKeepsTheCapacityCliff(t *testing.T) {
	sc, err := ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := Lookup("fig6-low")
	if !ok {
		t.Fatal("fig6-low entry missing")
	}
	for _, system := range []string{"htm", "si-htm"} {
		sys, mkWorker, check, err := e.BuildPoint(system, 1, sc)
		if err != nil {
			t.Fatal(err)
		}
		hr := harness.RunOps(sys, 1, 500, mkWorker)
		if err := check(); err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		share := hr.AbortPercent(stats.AbortCapacity)
		t.Logf("%s: capacity aborts %.1f%% of attempts over 500 transactions", system, share)
		if system == "htm" && share <= 0 {
			t.Errorf("htm capacity-abort share is 0 at ci scale: fig6-low's chains no longer reach the TMCAM")
		}
		if system == "si-htm" && share != 0 {
			t.Errorf("si-htm capacity-abort share is %.1f%%, want 0", share)
		}
	}
}
