package wal

import (
	"bytes"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

// FuzzReplayBytes attacks the record decoder, which reads untrusted
// bytes twice over: log files after a crash, and the records section of
// every TReplBatch a follower applies. Seeds are a small intact image
// and the four damages wal/crashtest inflicts on a real log — a
// truncation, a bit flip, a zeroed span and a garbage tail. The
// property: replay never panics, ValidBytes + TailBytes accounts for
// every input byte, every record it delivers re-encodes to exactly the
// bytes it was read from (one encoding per value, nothing dropped or
// invented), and Redo of any delivered record into a small heap either
// applies or refuses it, never panics.
func FuzzReplayBytes(f *testing.F) {
	var img []byte
	for seq := uint64(1); seq <= 4; seq++ {
		img = appendRecord(img, seq, entriesFor(seq))
	}
	img = appendRecord(img, 5, nil) // an empty write set frames too
	f.Add(img)
	f.Add(img[:len(img)-7])
	flipped := bytes.Clone(img)
	flipped[40] ^= 0x10
	f.Add(flipped)
	zeroed := bytes.Clone(img)
	clear(zeroed[20:36])
	f.Add(zeroed)
	f.Add(append(bytes.Clone(img), "a garbage tail"...))

	heap := memsim.NewHeap(256)
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		st, err := ReplayBytes(data, func(seq uint64, entries []footprint.Entry) error {
			re := appendRecord(nil, seq, entries)
			if off+len(re) > len(data) || !bytes.Equal(re, data[off:off+len(re)]) {
				t.Fatalf("record %d at byte %d does not re-encode to its own bytes", seq, off)
			}
			off += len(re)
			_ = Redo(heap, entries)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.ValidBytes != int64(off) || st.ValidBytes+st.TailBytes != int64(len(data)) {
			t.Fatalf("%s for %d input bytes, %d delivered", st, len(data), off)
		}
	})
}
