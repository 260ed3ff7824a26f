package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sihtm/internal/durable"
	"sihtm/internal/node"
)

// This file is the crash-recovery half of a served run directory:
// `repro serve --durable-dir` writes meta.json (WriteDurableMeta) next to
// the wal.log and heap.ckpt its node keeps there, and `repro recover`
// (RecoverDurable) later rebuilds the served base deterministically from
// meta.json, restores checkpoint + log, and re-checks the workload
// invariants on the recovered state.

// DurableMeta is the run descriptor persisted as meta.json — everything
// recovery needs to rebuild the served base state with BuildServed, and
// the digest (memsim.Heap.Digest) of the base the log was written over,
// so a rebuild that lays the heap out differently is refused instead of
// replayed onto.
type DurableMeta struct {
	Scenario string `json:"scenario"` // a BuildServed scenario
	System   string `json:"system"`
	Scale    string `json:"scale"`
	// Threads is the leader's shard count, from which the build's
	// deterministic seed derives.
	Threads    int    `json:"threads"`
	BaseDigest string `json:"base_digest"`
}

func metaPath(dir string) string { return filepath.Join(dir, "meta.json") }

// WriteDurableMeta creates the run directory dir and writes meta.json
// into it, next to the wal.log and heap.ckpt a durable node started on
// dir keeps there, so RecoverDurable can replay the directory later.
func WriteDurableMeta(dir string, meta DurableMeta) error {
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

// DurableRecovery is the JSON-serializable outcome of RecoverDurable —
// the replayed BENCH artifact the CI server smoke uploads.
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

// RecoverDurable crash-replays a run directory: it rebuilds the served
// base from meta.json with BuildServed, refuses it unless its digest is
// the one meta.json recorded, restores heap.ckpt (if the crash left one)
// plus the wal.log valid prefix, and re-checks the backend's invariants
// on the recovered state: its structure, and the populated key count
// (the served GET/RMW traffic neither inserts nor deletes). The returned
// error is non-nil when recovery itself fails or the invariants do not
// hold.
func RecoverDurable(dir string) (DurableRecovery, error) {
	var out DurableRecovery
	mj, err := os.ReadFile(metaPath(dir))
	if err != nil {
		return out, fmt.Errorf("experiments: recover: %w", err)
	}
	if err := json.Unmarshal(mj, &out.Meta); err != nil {
		return out, fmt.Errorf("experiments: recover: meta.json: %w", err)
	}
	m, backend, err := BuildServed(out.Meta.Scenario, out.Meta.Scale, out.Meta.Threads)
	if err != nil {
		return out, err
	}
	if err := SameBase(out.Meta.BaseDigest, m.Heap().Digest()); err != nil {
		err = fmt.Errorf("experiments: recover: meta.json: %w", err)
		out.Detail = err.Error()
		return out, err
	}
	keys := population(backend)
	rep, err := durable.Recover(m.Heap(), node.CkptPath(dir), node.LogPath(dir))
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
	if err := engineCheck(backend, keys); err != nil {
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
