package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sihtm/internal/loadgen"
	"sihtm/internal/node"
	"sihtm/internal/server"
)

// startServed starts the node `repro serve` would: BuildServed's
// si-htm ycsb-a build at ci scale, durable in dir when dir is set (with
// meta.json, periodic and drain-time checkpoints).
func startServed(t *testing.T, shards, batch int, dir string) *node.Node {
	t.Helper()
	m, backend, err := BuildServed("ycsb-a", "ci", shards)
	if err != nil {
		t.Fatal(err)
	}
	digest := m.Heap().Digest()
	sys, err := NewSystem("si-htm", m, m.Heap(), shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.Config{
		Addr:    "127.0.0.1:0",
		Machine: m,
		Server: server.Config{
			Backend: backend, System: sys, Shards: shards, BatchMax: batch,
			Scenario: "ycsb-a", Scale: "ci",
		},
	}
	if dir != "" {
		err := WriteDurableMeta(dir, DurableMeta{
			Scenario: "ycsb-a", System: "si-htm", Scale: "ci", Threads: shards,
			BaseDigest: digest,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dir = dir
		cfg.CkptEvery = 200 * time.Millisecond
		cfg.Server.CheckpointPath = node.CkptPath(dir)
	}
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServeLoadgenRecoverPipeline is the in-process version of the CI
// server-smoke job: start a durable `repro serve` instance, drive an
// open-loop point against it the way `repro loadgen` does, shut the
// server down gracefully (final checkpoint), and crash-replay the run
// directory through the existing recovery pipeline.
func TestServeLoadgenRecoverPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("serves and measures over loopback; a few seconds")
	}
	dir := t.TempDir()
	ns := startServed(t, 4, 32, dir)
	defer ns.Shutdown()

	sc := quickScale()
	sc.Measure = 200 * time.Millisecond // spans a periodic checkpoint
	res, st, err := RunOpenLoop(ns.Addr.String(), 8, loadgen.Arrival{Process: "poisson", Rate: 2000}, sc, 0)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if st.System != "si-htm" || st.BatchMax != 32 || st.P99TargetUs != 0 {
		t.Errorf("window-end STATS report system %q batch %d target %d, want the server's si-htm, 32, off",
			st.System, st.BatchMax, st.P99TargetUs)
	}
	if p50, p99 := res.Hist.Quantile(0.5), res.Hist.Quantile(0.99); p99 <= 0 || p50 > p99 {
		t.Errorf("malformed latency p50=%s p99=%s", p50, p99)
	}

	// Graceful shutdown: drain, final checkpoint, store close; Serve
	// has returned nil.
	if err := ns.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-ns.Served():
	default:
		t.Fatal("Serve still running after shutdown")
	}
	for _, f := range []string{"meta.json", "wal.log", "heap.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("run directory missing %s: %v", f, err)
		}
	}

	// The run directory replays through the crash-recovery pipeline.
	rep, err := RecoverDurable(dir)
	if err != nil {
		t.Fatalf("recover: %v (detail: %s)", err, rep.Detail)
	}
	if !rep.InvariantsOK {
		t.Fatalf("recovered state failed invariants: %+v", rep)
	}
	if !rep.CheckpointUsed {
		t.Error("drain-time checkpoint not used by recovery")
	}
	if rep.RecoveredSeq == 0 {
		t.Error("no logged transaction recovered")
	}
}

// A window in which the server answered nothing is a failed point, not
// a measurement of zero: one connection offering one request a second
// has no reply inside a 20 ms window.
func TestRunOpenLoopFailsOnEmptyWindow(t *testing.T) {
	ns := startServed(t, 2, 8, "")
	defer ns.Shutdown()
	sc := Scale{Warmup: 5 * time.Millisecond, Measure: 20 * time.Millisecond}
	res, _, err := RunOpenLoop(ns.Addr.String(), 1, loadgen.Arrival{Process: "uniform", Rate: 1}, sc, 0)
	if err == nil || !strings.Contains(err.Error(), "no replies") {
		t.Fatalf("RunOpenLoop over an empty window = (%d replies, %v), want a no-replies error", res.Replies, err)
	}
}
