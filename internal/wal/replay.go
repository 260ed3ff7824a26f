package wal

import (
	"fmt"
	"os"

	"sihtm/internal/footprint"
)

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Records is how many valid records were applied.
	Records int
	// FirstSeq and LastSeq bound the applied sequence range (0/0 when
	// the log held no valid record).
	FirstSeq, LastSeq uint64
	// ValidBytes is the offset where the valid prefix ends.
	ValidBytes int64
	// TailBytes is the size of the discarded torn/corrupt tail.
	TailBytes int64
}

// String renders the stats for reports.
func (s ReplayStats) String() string {
	return fmt.Sprintf("%d records (seq %d..%d), %d valid bytes, %d tail bytes discarded",
		s.Records, s.FirstSeq, s.LastSeq, s.ValidBytes, s.TailBytes)
}

// Replay scans the log file at path and invokes fn for every record of
// the longest valid prefix, in sequence order. The prefix ends at the
// first framing violation — short read, bad magic, CRC mismatch or a
// sequence-continuity break — which is how a tail torn by a crash
// mid-write (or corrupted on the way down) is detected and discarded;
// everything after it is ignored even if it frames correctly, because a
// gap means the commit order cannot be reconstructed. A non-nil error
// from fn aborts the replay.
//
// entries passed to fn alias a decode buffer the next record reuses;
// copy them out to retain.
func Replay(path string, fn func(seq uint64, entries []footprint.Entry) error) (ReplayStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ReplayStats{}, fmt.Errorf("wal: replay: %w", err)
	}
	return ReplayBytes(data, fn)
}

// ReplayBytes is Replay over an in-memory log image (crash-injection
// tests corrupt copies of the image directly).
func ReplayBytes(data []byte, fn func(seq uint64, entries []footprint.Entry) error) (ReplayStats, error) {
	var st ReplayStats
	var entries []footprint.Entry
	off := 0
	for {
		seq, es, size, ok := ParseRecord(data[off:], entries)
		if !ok {
			break
		}
		if st.Records > 0 && seq != st.LastSeq+1 {
			break // continuity break: treat like a torn tail
		}
		entries = es
		if fn != nil {
			if err := fn(seq, entries); err != nil {
				return st, fmt.Errorf("wal: replay seq %d: %w", seq, err)
			}
		}
		if st.Records == 0 {
			st.FirstSeq = seq
		}
		st.LastSeq = seq
		st.Records++
		off += size
		st.ValidBytes = int64(off)
	}
	st.TailBytes = int64(len(data)) - st.ValidBytes
	return st, nil
}
