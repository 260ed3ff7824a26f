package durable

import (
	"errors"
	"fmt"
	"os"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
	"sihtm/internal/wal"
)

// Report summarizes one recovery pass.
type Report struct {
	// CheckpointUsed reports whether a checkpoint image was restored.
	CheckpointUsed bool
	// Watermark is the checkpoint's replay floor (0 without one).
	Watermark uint64
	// Replay describes the log scan (valid prefix, discarded tail).
	Replay wal.ReplayStats
	// Applied counts records with seq > Watermark (re-played into the
	// heap); Skipped counts records the checkpoint already covered.
	Applied, Skipped int
	// RecoveredSeq is the sequence number the recovered state
	// corresponds to: the state is exactly commits 1..RecoveredSeq.
	RecoveredSeq uint64
}

// String renders the report for logs and CLI output.
func (r Report) String() string {
	src := "base image"
	if r.CheckpointUsed {
		src = fmt.Sprintf("checkpoint (watermark %d)", r.Watermark)
	}
	return fmt.Sprintf("recovered to seq %d from %s: %d records applied, %d skipped; log: %s",
		r.RecoveredSeq, src, r.Applied, r.Skipped, r.Replay)
}

// Recover rebuilds the durable state onto heap: it restores the
// checkpoint at ckptPath (if the file exists), then replays the log's
// valid prefix, applying every record past the checkpoint watermark in
// sequence order. When no checkpoint exists the heap must already hold
// the base state the log was started from (the deterministic
// post-population image) and the whole log is applied.
//
// The resulting heap is exactly the state produced by commits
// 1..Report.RecoveredSeq — prefix-consistent, containing every
// acknowledged (fsynced) transaction and nothing past the log's valid
// prefix.
func Recover(heap *memsim.Heap, ckptPath, logPath string) (Report, error) {
	var rep Report
	if ckptPath != "" {
		w, err := ReadCheckpoint(ckptPath, heap)
		switch {
		case err == nil:
			rep.CheckpointUsed = true
			rep.Watermark = w
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet (crash before the first one): replay
			// from the base image.
		default:
			return rep, err
		}
	}

	st, err := wal.Replay(logPath, func(seq uint64, entries []footprint.Entry) error {
		if seq <= rep.Watermark {
			rep.Skipped++
			return nil
		}
		// Redo also advances the allocation watermark past the record's
		// lines: nodes allocated after the checkpoint stay reserved.
		if err := wal.Redo(heap, entries); err != nil {
			return err
		}
		rep.Applied++
		return nil
	})
	rep.Replay = st
	if err != nil {
		return rep, err
	}
	rep.RecoveredSeq = st.LastSeq
	if rep.RecoveredSeq < rep.Watermark {
		// A checkpoint is only renamed into place after the log was
		// forced through its watermark, so a valid prefix ending below
		// it means the log and checkpoint do not belong together.
		return rep, fmt.Errorf("durable: log prefix ends at seq %d but checkpoint watermark is %d",
			rep.RecoveredSeq, rep.Watermark)
	}
	return rep, nil
}
