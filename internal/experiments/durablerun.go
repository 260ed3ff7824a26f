package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/node"
	"sihtm/internal/server"
)

// This file is the crash-recovery pipeline behind `repro durable` and
// `repro recover`: StartDurable runs a durable scenario against an
// on-disk run directory (meta.json + wal.log + heap.ckpt) until it is
// killed — the intended crash — and RecoverDurable later rebuilds the
// scenario deterministically from meta.json, restores checkpoint + log,
// and re-checks the workload invariants on the recovered state.

// DurableMeta is the run descriptor persisted as meta.json — everything
// recovery needs to rebuild the scenario's deterministic base state, and
// the digest (memsim.Heap.Digest) of the base the log was written over,
// so a rebuild that lays the heap out differently is refused instead of
// replayed onto.
type DurableMeta struct {
	Scenario   string `json:"scenario"` // "ycsb-a" or "vacation"
	System     string `json:"system"`
	Scale      string `json:"scale"`
	Threads    int    `json:"threads"`
	BaseDigest string `json:"base_digest"`
}

// durableScenarios are the scenarios StartDurable accepts: the
// registry's own workload builds, so a run directory replays against
// the same deterministic base its run started from.
var durableScenarios = []struct {
	name string
	w    workload
}{{"ycsb-a", ycsbA.build}, {"vacation", vacationLow.build}}

// DurableScenarioNames lists the scenarios StartDurable accepts.
func DurableScenarioNames() []string {
	var names []string
	for _, s := range durableScenarios {
		names = append(names, s.name)
	}
	return names
}

func metaPath(dir string) string { return filepath.Join(dir, "meta.json") }

// WriteDurableMeta creates the run directory dir and writes meta.json
// into it, next to the wal.log and heap.ckpt a durable node started on
// dir keeps there, so RecoverDurable can replay the directory later.
func WriteDurableMeta(dir string, meta DurableMeta) error {
	if !slices.Contains(DurableScenarioNames(), meta.Scenario) {
		return fmt.Errorf("experiments: durable runs support scenarios %v, not %q", DurableScenarioNames(), meta.Scenario)
	}
	if meta.BaseDigest == "" {
		return fmt.Errorf("experiments: meta.json needs the base image's digest")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(metaPath(dir), append(mj, '\n'), 0o644)
}

// buildDurable builds the deterministic base state meta describes.
func buildDurable(meta DurableMeta) (*built, error) {
	sc, err := ScaleByName(meta.Scale)
	if err != nil {
		return nil, err
	}
	if meta.Threads <= 0 {
		return nil, fmt.Errorf("experiments: durable run needs a positive thread count")
	}
	for _, s := range durableScenarios {
		if s.name == meta.Scenario {
			return s.w(sc.withDefaults(), meta.Threads)
		}
	}
	return nil, fmt.Errorf("experiments: unknown durable scenario %q (known: %v)", meta.Scenario, DurableScenarioNames())
}

// StartDurable populates the scenario, writes meta.json (with the fresh
// base image's digest in place of meta's), and runs the
// durable workload on a headless node logging to dir until duration
// elapses (0 = until the process is killed — the crash the recovery
// pipeline exists for). Checkpoints are written to heap.ckpt on
// ckptEvery intervals (0 disables them). progress (may be nil) receives
// one line per second.
func StartDurable(dir string, meta DurableMeta, duration, ckptEvery time.Duration, progress io.Writer) error {
	b, err := buildDurable(meta)
	if err != nil {
		return err
	}
	meta.BaseDigest = b.machine.Heap().Digest()
	sys, err := NewSystem(meta.System, b.machine, b.machine.Heap(), meta.Threads)
	if err != nil {
		return err
	}
	if err := WriteDurableMeta(dir, meta); err != nil {
		return err
	}
	n, err := node.Start(node.Config{
		Machine:   b.machine,
		Server:    server.Config{System: sys},
		Dir:       dir,
		CkptEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	defer n.Shutdown()
	stopWorkers := runWorkers(meta.Threads, b.workers(n.System))
	defer stopWorkers()

	start := time.Now()
	report := time.NewTicker(time.Second)
	defer report.Stop()
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	for {
		select {
		case <-report.C:
			if progress != nil {
				st := n.Store.Log().Stats()
				fmt.Fprintf(progress, "t=%s commits=%d durable_seq=%d fsyncs=%d\n",
					time.Since(start).Round(time.Second), n.System.Collector().Snapshot().Commits,
					n.Store.DurableSeq(), st.Fsyncs)
			}
		case <-deadline:
			stopWorkers()
			if err := b.check(); err != nil {
				return fmt.Errorf("experiments: post-run invariants: %w", err)
			}
			return n.Shutdown()
		}
	}
}

// runWorkers drives mk-built workers until the returned stop, which
// waits for them to return.
func runWorkers(threads int, mk func(int) func()) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(op func()) {
			defer wg.Done()
			for !halt.Load() {
				op()
			}
		}(mk(id))
	}
	return func() { halt.Store(true); wg.Wait() }
}

// DurableRecovery is the JSON-serializable outcome of RecoverDurable —
// the replayed BENCH artifact the CI recovery smoke uploads.
type DurableRecovery struct {
	Meta           DurableMeta `json:"meta"`
	CheckpointUsed bool        `json:"checkpoint_used"`
	Watermark      uint64      `json:"watermark"`
	RecoveredSeq   uint64      `json:"recovered_seq"`
	RecordsApplied int         `json:"records_applied"`
	RecordsSkipped int         `json:"records_skipped"`
	TailBytes      int64       `json:"tail_bytes_discarded"`
	InvariantsOK   bool        `json:"invariants_ok"`
	Detail         string      `json:"detail"`
}

// RecoverDurable crash-replays a run directory: it rebuilds the
// scenario's deterministic base from meta.json, refuses it unless its
// digest is the one meta.json recorded, restores heap.ckpt (if the crash
// left one) plus the wal.log valid prefix, and re-checks the scenario
// invariants on the recovered state. The returned error is non-nil when
// recovery itself fails or the invariants do not hold.
func RecoverDurable(dir string) (DurableRecovery, error) {
	var out DurableRecovery
	mj, err := os.ReadFile(metaPath(dir))
	if err != nil {
		return out, fmt.Errorf("experiments: recover: %w", err)
	}
	if err := json.Unmarshal(mj, &out.Meta); err != nil {
		return out, fmt.Errorf("experiments: recover: meta.json: %w", err)
	}
	b, err := buildDurable(out.Meta)
	if err != nil {
		return out, err
	}
	if err := SameBase(out.Meta.BaseDigest, b.machine.Heap().Digest()); err != nil {
		err = fmt.Errorf("experiments: recover: meta.json: %w", err)
		out.Detail = err.Error()
		return out, err
	}
	rep, err := durable.Recover(b.machine.Heap(), node.CkptPath(dir), node.LogPath(dir))
	out.CheckpointUsed = rep.CheckpointUsed
	out.Watermark = rep.Watermark
	out.RecoveredSeq = rep.RecoveredSeq
	out.RecordsApplied = rep.Applied
	out.RecordsSkipped = rep.Skipped
	out.TailBytes = rep.Replay.TailBytes
	if err != nil {
		out.Detail = err.Error()
		return out, err
	}
	if err := b.check(); err != nil {
		out.Detail = err.Error()
		return out, fmt.Errorf("experiments: recovered state violates invariants: %w", err)
	}
	out.InvariantsOK = true
	out.Detail = rep.String()
	return out, nil
}

// SameBase refuses to replay a log recorded over the base image with
// digest recorded onto a rebuilt base with digest built: the log's
// records name heap words, so a base laid out differently would take
// them somewhere else without any error. A missing digest (a log from
// before digests existed) cannot be checked, and is refused too.
func SameBase(recorded, built string) error {
	switch recorded {
	case built:
		return nil
	case "":
		return fmt.Errorf("no base image digest recorded, so this build's (%s) cannot be checked against it", built)
	default:
		return fmt.Errorf("base image digest %s recorded, this build's is %s", recorded, built)
	}
}
