package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sihtm/internal/node"
	"sihtm/internal/results"
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
// server-smoke job: start a durable `repro serve` instance, drive every
// net entry against it with the loadgen path, shut the server down
// gracefully (final checkpoint), and crash-replay the run directory
// through the existing recovery pipeline.
func TestServeLoadgenRecoverPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("serves and measures over loopback; a few seconds")
	}
	dir := t.TempDir()
	ns := startServed(t, 4, netBatchDefault, dir)
	defer ns.Shutdown()

	sc := quickScale()
	var recs []results.Record
	err := RunLoadgen(ns.Addr.String(), NetEntryIDs(), sc, func(r results.Record) {
		recs = append(recs, r)
	}, nil)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	byID := map[string]int{}
	for _, r := range recs {
		byID[r.Experiment]++
		if r.System != "si-htm" && r.System != "si-htm+ctrl" {
			t.Errorf("record %s labeled system %q, want the server's si-htm (or +ctrl variant)", r.Experiment, r.System)
		}
		if r.Commits == 0 {
			t.Errorf("record %s/%s/%d committed nothing", r.Experiment, r.Param, r.Threads)
		}
		if r.LatencyP99Us <= 0 || r.LatencyP50Us > r.LatencyP99Us {
			t.Errorf("record %s/%s/%d has malformed latency p50=%.1f p99=%.1f",
				r.Experiment, r.Param, r.Threads, r.LatencyP50Us, r.LatencyP99Us)
		}
	}
	for _, id := range NetEntryIDs() {
		if byID[id] == 0 {
			t.Errorf("loadgen produced no %s records", id)
		}
	}
	if byID["net-batch-window"] != len(netBatches) {
		t.Errorf("batch sweep produced %d records, want %d", byID["net-batch-window"], len(netBatches))
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
}

// TestLoadgenRejectsNonDurableServer: the durable net entry must demand
// a durable server instead of silently measuring a volatile one.
func TestLoadgenRejectsNonDurableServer(t *testing.T) {
	ns := startServed(t, 2, 8, "")
	defer ns.Shutdown()
	err := RunLoadgen(ns.Addr.String(), []string{"net-durable-ycsb-a"}, quickScale(), func(results.Record) {}, nil)
	if err == nil {
		t.Fatal("loadgen measured net-durable-ycsb-a against a volatile server")
	}
}
