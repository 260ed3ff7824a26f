package experiments

import (
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
				WindowNS: int64(200 * time.Microsecond),
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

// TestDurableCellPoint smokes one registry durable cell point,
// including its built-in recovery equivalence check.
func TestDurableCellPoint(t *testing.T) {
	sc := quickScale()
	hr, batch, err := durableYCSBPoint(ycsbA, sc, "si-htm", 2, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Stats.Commits == 0 {
		t.Fatal("no commits measured")
	}
	if batch <= 0 {
		t.Fatalf("batch size %f", batch)
	}
}
