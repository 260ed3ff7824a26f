package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
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
			if rep.Meta.BaseDigest == "" {
				t.Fatal("meta.json records no base image digest")
			}
			if meta.BaseDigest = rep.Meta.BaseDigest; rep.Meta != meta {
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

// startShortDurable runs a 50 ms durable ycsb-a into a fresh run
// directory and returns it with the meta.json it wrote.
func startShortDurable(t *testing.T) (string, DurableMeta) {
	t.Helper()
	dir := t.TempDir()
	meta := DurableMeta{Scenario: "ycsb-a", System: "si-htm", Scale: "ci", Threads: 2}
	if err := StartDurable(dir, meta, 50*time.Millisecond, 0, nil); err != nil {
		t.Fatal(err)
	}
	mj, err := os.ReadFile(metaPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mj, &meta); err != nil {
		t.Fatal(err)
	}
	return dir, meta
}

// TestOldMetaStillLoads: a meta.json written before the window knob was
// deleted carries a window_ns key; recovery must ignore it.
func TestOldMetaStillLoads(t *testing.T) {
	dir, meta := startShortDurable(t)
	old := fmt.Sprintf(`{"scenario":"ycsb-a","system":"si-htm","scale":"ci","threads":2,"window_ns":200000,"base_digest":%q}`, meta.BaseDigest)
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

// A run directory whose base image digest is not the rebuilt base's was
// logged over a heap laid out differently: recovery must refuse it,
// naming both digests, before it replays a record.
func TestRecoverRefusesMismatchedBaseDigest(t *testing.T) {
	dir, meta := startShortDurable(t)
	built := meta.BaseDigest
	meta.BaseDigest = "0123456789abcdef"
	mj, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(dir), mj, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverDurable(dir)
	if err == nil || !strings.Contains(err.Error(), built) || !strings.Contains(err.Error(), meta.BaseDigest) {
		t.Fatalf("recover over a mismatched base digest: %v, want a refusal naming %s and %s", err, built, meta.BaseDigest)
	}
	if rep.RecordsApplied != 0 || rep.InvariantsOK {
		t.Fatalf("refused recovery still replayed: %+v", rep)
	}
}

// A run directory without a base image digest (written before digests
// existed) cannot be checked against the rebuilt base: recovery must
// refuse it, naming the rebuilt digest.
func TestRecoverRefusesMissingBaseDigest(t *testing.T) {
	dir, meta := startShortDurable(t)
	old := `{"scenario":"ycsb-a","system":"si-htm","scale":"ci","threads":2}`
	if err := os.WriteFile(metaPath(dir), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverDurable(dir)
	if err == nil || !strings.Contains(err.Error(), "no base image digest recorded") || !strings.Contains(err.Error(), meta.BaseDigest) {
		t.Fatalf("recover without a base digest: %v, want a refusal naming %s", err, meta.BaseDigest)
	}
	if rep.RecordsApplied != 0 || rep.InvariantsOK {
		t.Fatalf("refused recovery still replayed: %+v", rep)
	}
}
