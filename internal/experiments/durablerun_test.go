package experiments

import (
	"os"
	"testing"
	"time"
)

// TestStartAndRecoverDurable drives the crash-recovery pipeline behind
// `repro durable` / `repro recover` end to end (with a clean stop
// standing in for the SIGKILL CI applies): run, then rebuild + replay
// + invariant check from the run directory alone.
func TestStartAndRecoverDurable(t *testing.T) {
	for _, scenario := range DurableScenarioNames() {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			meta := DurableMeta{
				Scenario: scenario,
				System:   "si-htm",
				Scale:    "ci",
				Threads:  2,
			}
			if err := StartDurable(dir, meta, 250*time.Millisecond, 100*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
			rep, err := RecoverDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.InvariantsOK {
				t.Fatalf("invariants not verified: %+v", rep)
			}
			if rep.RecoveredSeq == 0 {
				t.Fatal("no transactions recovered")
			}
			if rep.Meta != meta {
				t.Fatalf("meta round-trip: %+v != %+v", rep.Meta, meta)
			}
		})
	}
}

// TestDurableCellPoint runs one point of each durable scenario through
// runPoint on the durable host, including its built-in recovery
// equivalence check. sgl is included because it holds the global lock
// for every transaction: a fuzzy checkpoint that imaged the lock word
// held would fail the word-for-word comparison (CI draws this 50 times).
func TestDurableCellPoint(t *testing.T) {
	sc := quickScale()
	for _, e := range durableEntries() {
		for _, system := range []string{"si-htm", "sgl"} {
			hr, err := runPoint(point{threads: 2, w: e.axis(sc)[0].w}, system, sc, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.ID, system, err)
			}
			if hr.Stats.Commits == 0 {
				t.Fatalf("%s/%s: no commits measured", e.ID, system)
			}
		}
	}
}

// TestOldMetaStillLoads: a meta.json written before the window knob was
// deleted carries a window_ns key; recovery must ignore it.
func TestOldMetaStillLoads(t *testing.T) {
	dir := t.TempDir()
	meta := DurableMeta{Scenario: "ycsb-a", System: "si-htm", Scale: "ci", Threads: 2}
	if err := StartDurable(dir, meta, 50*time.Millisecond, 0, nil); err != nil {
		t.Fatal(err)
	}
	old := `{"scenario":"ycsb-a","system":"si-htm","scale":"ci","threads":2,"window_ns":200000}`
	if err := os.WriteFile(metaPath(dir), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta != meta {
		t.Fatalf("meta = %+v, want %+v", rep.Meta, meta)
	}
}
