package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

// addDamagedImages seeds a fuzz target with a small intact log image
// and the four damages wal/crashtest inflicts on a real log — a
// truncation, a bit flip, a zeroed span and a garbage tail.
func addDamagedImages(f *testing.F) {
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
}

// FuzzReplayBytes attacks the record decoder, which reads untrusted
// bytes twice over: log files after a crash, and the records section of
// every TReplBatch a follower applies. Seeds are addDamagedImages. The
// property: replay never panics, ValidBytes + TailBytes accounts for
// every input byte, every record it delivers re-encodes to exactly the
// bytes it was read from (one encoding per value, nothing dropped or
// invented), and Redo of any delivered record into a small heap either
// applies or refuses it, never panics.
func FuzzReplayBytes(f *testing.F) {
	addDamagedImages(f)
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

// FuzzTailer attacks the tailer, which reads the leader's log file for
// every replication stream. Seeds are addDamagedImages plus a file whose
// records run 1, 2, 1, 3. The input is written to a file and a tailer
// from sequence 1 drains it with a small byte budget until it makes no
// progress or errors. The property: no panic, and the bytes it surfaced
// are always a prefix of Replay's valid prefix (less any leading record
// below the floor) and all of it when no error was returned — a
// follower never holds a record that recovery would not replay.
func FuzzTailer(f *testing.F) {
	addDamagedImages(f)
	var repeat []byte
	for _, seq := range []uint64{1, 2, 1, 3} {
		repeat = appendRecord(repeat, seq, entriesFor(seq))
	}
	f.Add(repeat)

	path := filepath.Join(f.TempDir(), "wal.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		skip := 0
		st, _ := ReplayBytes(data, func(seq uint64, entries []footprint.Entry) error {
			if seq < 1 {
				skip += recordSize(len(entries))
			}
			return nil
		})
		want := data[skip:st.ValidBytes]
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenTailer(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Close()
		var got []byte
		for {
			n := len(got)
			got, err = tl.Next(^uint64(0), got, 64)
			if err != nil || len(got) == n {
				break
			}
		}
		if !bytes.HasPrefix(want, got) {
			t.Fatalf("tailer surfaced %d bytes that are not a prefix of the %d-byte valid prefix", len(got), len(want))
		}
		if err == nil && len(got) != len(want) {
			t.Fatalf("tailer surfaced %d of the %d-byte valid prefix without an error", len(got), len(want))
		}
	})
}
