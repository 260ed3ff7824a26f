package wal

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrTailCorrupt reports damage in the tailed log: a complete record
// whose magic, count bound or CRC fails. A live log never produces it
// (the writer appends whole records in file order); seeing it means the
// file is not the log the tailer was pointed at.
var ErrTailCorrupt = errors.New("wal: corrupt record in tailed log")

// Tailer follows a (possibly still-growing) log file, surfacing its
// records in sequence order from a starting floor. Unlike Replay, which
// reads a dead log once and discards the torn tail, a Tailer treats an
// incomplete record as "not flushed yet" and resumes parsing when more
// bytes arrive — the reader side of WAL shipping.
//
// The caller bounds each read with the writer's durable watermark
// (Log.DurableSeq): records past it may be mid-flush, so the tailer
// never surfaces them even when their bytes happen to be readable.
type Tailer struct {
	f     *os.File
	buf   []byte // unconsumed file bytes
	off   int    // parse offset into buf
	next  uint64 // next sequence number to surface
	after uint64 // sequence the next framed record must carry (0 before the first)
	chunk []byte // read scratch
}

// OpenTailer opens the log at path for following. Records with
// sequence numbers below fromSeq are skipped (the follower already has
// them); the first record surfaced is exactly fromSeq. Every record,
// skipped or not, must follow its predecessor, as in Replay's prefix.
func OpenTailer(path string, fromSeq uint64) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: tail: %w", err)
	}
	if fromSeq == 0 {
		fromSeq = 1
	}
	return &Tailer{f: f, next: fromSeq, chunk: make([]byte, 64<<10)}, nil
}

// NextSeq returns the next sequence number the tailer will surface.
func (t *Tailer) NextSeq() uint64 { return t.next }

// Next appends to dst the bytes of every newly available whole record
// with sequence ≤ limit, in sequence order and exactly as the log
// framed them, stopping before a record that would take the appended
// bytes past budget (the first one always goes: a record is never
// split). The records appended run from NextSeq before the call up to,
// not including, NextSeq after it. Next checks each record's framing,
// CRC and sequence continuity but does not decode it. It reads to the
// current end of file and returns (possibly nothing) rather than
// blocking; callers call again after Log.Notify signals a flush. A
// record past limit or budget stays buffered for a later call.
//
// Errors: ErrTailCorrupt for damaged bytes, a sequence-continuity
// violation for a log that skips numbers, I/O errors otherwise. All
// are terminal for this tailer.
func (t *Tailer) Next(limit uint64, dst []byte, budget int) ([]byte, error) {
	start := len(dst)
	for {
		// Drain whole records already buffered.
		for {
			seq, size, st := frameRecord(t.buf[t.off:])
			if st == recShort {
				break
			}
			if st == recBad {
				return dst, ErrTailCorrupt
			}
			if t.after != 0 && seq != t.after || seq > t.next {
				return dst, fmt.Errorf("wal: tail: sequence gap: got %d, want %d", seq, cmp.Or(t.after, t.next))
			}
			if seq == t.next && (seq > limit || len(dst) > start && len(dst)-start+size > budget) {
				// Durable frontier or budget reached: leave the record
				// buffered (the re-check on the next call is cheap).
				return dst, nil
			}
			rec := t.buf[t.off : t.off+size]
			t.off += size
			t.after = seq + 1
			if seq < t.next {
				continue // prefix the follower already holds
			}
			t.next++
			dst = append(dst, rec...)
		}
		// Compact consumed bytes, then try to read more.
		if t.off > 0 {
			t.buf = append(t.buf[:0], t.buf[t.off:]...)
			t.off = 0
		}
		n, err := t.f.Read(t.chunk)
		if n > 0 {
			t.buf = append(t.buf, t.chunk[:n]...)
			continue
		}
		if err == nil || err == io.EOF {
			return dst, nil // caught up with the file
		}
		return dst, fmt.Errorf("wal: tail: %w", err)
	}
}

// Close releases the tailed file.
func (t *Tailer) Close() error { return t.f.Close() }
