package wal

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

func tailerLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// shipped is one record as a tailer handed it out, decoded back.
type shipped struct {
	Seq     uint64
	Entries []footprint.Entry
}

// decodeShipped parses the bytes Next appended; they must be whole,
// consecutive records and nothing else.
func decodeShipped(t *testing.T, b []byte) []shipped {
	t.Helper()
	var recs []shipped
	st, err := ReplayBytes(b, func(seq uint64, entries []footprint.Entry) error {
		recs = append(recs, shipped{seq, slices.Clone(entries)})
		return nil
	})
	if err != nil || st.TailBytes != 0 {
		t.Fatalf("tailer bytes are not whole records: %s, %v", st, err)
	}
	return recs
}

func entriesFor(seq uint64) []footprint.Entry {
	return []footprint.Entry{
		{Addr: memsim.Addr(seq % 128), Val: seq * 3},
		{Addr: memsim.Addr(seq%128 + 128), Val: seq},
	}
}

// TestTailerFollowsDurableFrontier appends in stages and checks the
// tailer surfaces exactly the records at or below each durable limit,
// in order, without rereading.
func TestTailerFollowsDurableFrontier(t *testing.T) {
	l, path := tailerLog(t)
	tl, err := OpenTailer(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	// Nothing written yet.
	buf, err := tl.Next(100, nil, 1<<20)
	if err != nil || len(buf) != 0 {
		t.Fatalf("empty log: (%d bytes, %v)", len(buf), err)
	}

	var want uint64 = 1
	for stage := 0; stage < 5; stage++ {
		for i := 0; i < 7; i++ {
			l.Append(entriesFor(l.LastSeq() + 1))
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		limit := l.DurableSeq()
		buf, err = tl.Next(limit, buf[:0], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		recs := decodeShipped(t, buf)
		if len(recs) != 7 || tl.NextSeq() != limit+1 {
			t.Fatalf("stage %d: %d records, want 7", stage, len(recs))
		}
		for _, r := range recs {
			if r.Seq != want {
				t.Fatalf("stage %d: seq %d, want %d", stage, r.Seq, want)
			}
			exp := entriesFor(r.Seq)
			if len(r.Entries) != len(exp) || r.Entries[0] != exp[0] || r.Entries[1] != exp[1] {
				t.Fatalf("seq %d: entries %+v, want %+v", r.Seq, r.Entries, exp)
			}
			want++
		}
	}
}

// TestTailerHoldsBackPastLimit: records beyond the limit stay buffered
// until the limit advances — the "only durable records ship" rule.
func TestTailerHoldsBackPastLimit(t *testing.T) {
	l, path := tailerLog(t)
	for i := 0; i < 10; i++ {
		l.Append(entriesFor(uint64(i + 1)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	buf, err := tl.Next(4, nil, 1<<20)
	if recs := decodeShipped(t, buf); err != nil || len(recs) != 4 {
		t.Fatalf("limit 4: (%d records, %v)", len(recs), err)
	}
	buf, err = tl.Next(4, buf[:0], 1<<20)
	if err != nil || len(buf) != 0 {
		t.Fatalf("limit 4 again: (%d bytes, %v)", len(buf), err)
	}
	buf, err = tl.Next(10, buf[:0], 1<<20)
	if recs := decodeShipped(t, buf); err != nil || len(recs) != 6 || recs[0].Seq != 5 || recs[5].Seq != 10 {
		t.Fatalf("limit 10: (%d records, %v)", len(recs), err)
	}
}

// TestTailerByteBudget: a budget cuts the run between whole records,
// never inside one, and the first record goes even when it alone is
// over budget; the rest follows on later calls, in order.
func TestTailerByteBudget(t *testing.T) {
	l, path := tailerLog(t)
	for i := 0; i < 10; i++ {
		l.Append(entriesFor(uint64(i + 1)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	size := recordSize(len(entriesFor(1)))
	for _, c := range []struct {
		budget    int
		wantFirst uint64
		wantRecs  int
	}{{1, 1, 1}, {3*size - 1, 2, 2}, {3 * size, 4, 3}, {1 << 20, 7, 4}} {
		buf, err := tl.Next(10, nil, c.budget)
		recs := decodeShipped(t, buf)
		if err != nil || len(recs) != c.wantRecs || recs[0].Seq != c.wantFirst {
			t.Fatalf("budget %d: %d records up to seq %d (%v), want %d from %d",
				c.budget, len(recs), tl.NextSeq()-1, err, c.wantRecs, c.wantFirst)
		}
	}
}

// TestTailerResumeFloor: a tailer opened at fromSeq skips the prefix a
// follower already replayed — the reconnect path.
func TestTailerResumeFloor(t *testing.T) {
	l, path := tailerLog(t)
	for i := 0; i < 12; i++ {
		l.Append(entriesFor(uint64(i + 1)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	buf, err := tl.Next(l.DurableSeq(), nil, 1<<20)
	recs := decodeShipped(t, buf)
	if err != nil || len(recs) != 5 {
		t.Fatalf("resume from 8: (%d records, %v)", len(recs), err)
	}
	if recs[0].Seq != 8 || recs[4].Seq != 12 {
		t.Fatalf("resume from 8: seqs %d..%d", recs[0].Seq, recs[4].Seq)
	}
}

// TestTailerCorruption: damage in a complete record is reported, not
// skipped or surfaced.
func TestTailerCorruption(t *testing.T) {
	l, path := tailerLog(t)
	for i := 0; i < 6; i++ {
		l.Append(entriesFor(uint64(i + 1)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x40
	mutPath := filepath.Join(t.TempDir(), "mut.log")
	if err := os.WriteFile(mutPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(mutPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	buf, err := tl.Next(6, nil, 1<<20)
	if err == nil {
		t.Fatalf("corruption not detected (%d bytes)", len(buf))
	}
	for _, r := range decodeShipped(t, buf) {
		exp := entriesFor(r.Seq)
		if r.Entries[0] != exp[0] || r.Entries[1] != exp[1] {
			t.Fatalf("corrupt record surfaced: seq %d %+v", r.Seq, r.Entries)
		}
	}
}

// TestTailerStopsAtValidPrefix: a file whose records run 1, 2, 1, 3 has
// the valid prefix 1, 2 — Replay stops at the repeat — and a tailer must
// surface exactly that prefix and report the gap, whether it starts at
// the head or skips records below its floor.
func TestTailerStopsAtValidPrefix(t *testing.T) {
	var img []byte
	for _, seq := range []uint64{1, 2, 1, 3} {
		img = appendRecord(img, seq, entriesFor(seq))
	}
	st, err := ReplayBytes(img, nil)
	if err != nil || st.Records != 2 {
		t.Fatalf("replay of 1, 2, 1, 3: %s, %v; want the 2-record prefix", st, err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{1, 2, 3} {
		tl, err := OpenTailer(path, from)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := tl.Next(^uint64(0), nil, 1<<20)
		tl.Close()
		if err == nil {
			t.Errorf("from %d: the repeated record 1 was not reported", from)
		}
		for _, r := range decodeShipped(t, buf) {
			if r.Seq < from || r.Seq > 2 {
				t.Errorf("from %d: tailer surfaced record %d past the valid prefix", from, r.Seq)
			}
		}
	}
}
