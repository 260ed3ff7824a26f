package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/harness"
	"sihtm/internal/node"
	"sihtm/internal/server"
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

// runDurablePoint measures one point of w under system on a headless
// durable node — every update's write set captured at the commit hook,
// group-commit fsynced and acknowledged before Atomic returns, fuzzy
// checkpoints every third of the window — then proves recovery: the
// base rebuilt by calling w again, restored from the checkpoint and log
// the node left, must equal the live heap word for word and pass the
// workload's check. It returns what recovery replayed.
func runDurablePoint(t *testing.T, w workload, system string, threads int, sc Scale) durable.Report {
	t.Helper()
	b, err := w(sc, threads)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(system, b.machine, b.machine.Heap(), threads)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := node.Start(node.Config{
		Machine:   b.machine,
		Server:    server.Config{Backend: b.backend, System: sys},
		Dir:       dir,
		CkptEvery: sc.Measure / 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	harness.Run(n.System, threads, sc.Warmup, sc.Measure, b.workers(n.System))
	if err := b.check(); err != nil {
		t.Fatalf("post-run check: %v", err)
	}
	// Shutdown stops the checkpointer (reporting a failed checkpoint) and
	// closes the log; recovery then reads what a restart would.
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := w(sc, threads)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := durable.Recover(rebuilt.machine.Heap(), node.CkptPath(dir), node.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := compareHeaps(b.machine.Heap(), rebuilt.machine.Heap()); err != nil {
		t.Fatalf("recovered heap: %v", err)
	}
	if err := rebuilt.check(); err != nil {
		t.Fatalf("recovered state: %v", err)
	}
	return rep
}

// TestDurableCellPoint runs one point of each durable scenario under
// each scenario system on a headless durable node, with fuzzy
// checkpoints during the window and a word-for-word recovery check after
// it. sgl holds the global lock for every transaction: a fuzzy
// checkpoint that imaged the lock word held would fail the comparison
// (CI draws this 50 times).
func TestDurableCellPoint(t *testing.T) {
	sc := quickScale()
	for _, s := range durableScenarios {
		for _, system := range scenarioSystems {
			t.Run(s.name+"/"+system, func(t *testing.T) {
				if rep := runDurablePoint(t, s.w, system, 2, sc); rep.RecoveredSeq == 0 {
					t.Fatal("the point logged no transaction to recover")
				}
			})
		}
	}
}

// startShortDurable runs a 50 ms durable ycsb-a into a fresh run
// directory and returns it with the meta.json it wrote.
func startShortDurable(t testing.TB) (string, DurableMeta) {
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

// FuzzRecoverDurableMeta feeds RecoverDurable a run directory whose
// wal.log is real and whose meta.json is arbitrary bytes. It must return
// an error or a report, never panic, and a meta it accepts must name a
// base it can rebuild whose digest passes SameBase.
func FuzzRecoverDurableMeta(f *testing.F) {
	src, meta := startShortDurable(f)
	good, err := os.ReadFile(metaPath(src))
	if err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(node.LogPath(src))
	if err != nil {
		f.Fatal(err)
	}
	variant := func(edit func(*DurableMeta)) []byte {
		m := meta
		edit(&m)
		mj, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return mj
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"scenario":1,"system":true,"scale":[],"threads":"2","base_digest":7}`))
	f.Add(variant(func(m *DurableMeta) { m.Scenario = "tpcc" }))
	f.Add(variant(func(m *DurableMeta) { m.Scale = "huge" }))
	f.Add(variant(func(m *DurableMeta) { m.Scenario = "vacation" }))
	f.Add(variant(func(m *DurableMeta) { m.BaseDigest = "0123456789abcdef" }))
	f.Add(variant(func(m *DurableMeta) { m.BaseDigest = "" }))
	for _, threads := range []int{0, -3, math.MaxInt} {
		f.Add(variant(func(m *DurableMeta) { m.Threads = threads }))
	}
	f.Fuzz(func(t *testing.T, mj []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(node.LogPath(dir), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(dir), mj, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := RecoverDurable(dir)
		if err != nil {
			return
		}
		b, err := buildDurable(rep.Meta)
		if err != nil {
			t.Fatalf("accepted meta %+v names no buildable base: %v", rep.Meta, err)
		}
		if err := SameBase(rep.Meta.BaseDigest, b.machine.Heap().Digest()); err != nil {
			t.Fatalf("accepted meta %+v: %v", rep.Meta, err)
		}
		if !rep.InvariantsOK {
			t.Fatalf("accepted without checking invariants: %+v", rep)
		}
	})
}
