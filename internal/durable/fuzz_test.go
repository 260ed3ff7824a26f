package durable

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"sihtm/internal/memsim"
)

// fuzzHeapWords is the capacity of the heap FuzzReadCheckpoint restores
// into: four lines, so an intact image is a few hundred bytes.
const fuzzHeapWords = 4 * memsim.WordsPerLine

// checkpointImage writes a real checkpoint of a heap of the given word
// capacity, with a couple of lines allocated and written, and returns
// its bytes.
func checkpointImage(t testing.TB, words int) []byte {
	heap := memsim.NewHeap(words)
	a := heap.AllocLine()
	heap.Store(a+1, 0xfeed)
	heap.Store(heap.AllocLine()+3, 7)
	dir := t.TempDir()
	store, err := Open(heap, filepath.Join(dir, "wal.log"), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "heap.ckpt")
	if _, err := store.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzReadCheckpoint attacks the checkpoint reader, which trusts nothing
// in the file it restores from after a crash. Seeds are a real
// WriteCheckpoint image and its damages: truncated, one bit flipped in
// the payload, and an intact image of a heap of the wrong size. The
// property: an error, never a panic; and an accepted image leaves the
// heap holding exactly its payload, with the allocation watermark its
// header names.
func FuzzReadCheckpoint(f *testing.F) {
	img := checkpointImage(f, fuzzHeapWords)
	f.Add(img)
	f.Add(img[:len(img)-9])
	flipped := bytes.Clone(img)
	flipped[ckptHeader+8] ^= 0x04
	f.Add(flipped)
	f.Add(checkpointImage(f, 2*fuzzHeapWords))

	// The intact seed must be accepted, or the property's second half is
	// never exercised.
	path := filepath.Join(f.TempDir(), "heap.ckpt")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		f.Fatal(err)
	}
	if _, err := ReadCheckpoint(path, memsim.NewHeap(fuzzHeapWords)); err != nil {
		f.Fatalf("intact image refused: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		heap := memsim.NewHeap(fuzzHeapWords)
		if _, err := ReadCheckpoint(path, heap); err != nil {
			return
		}
		for a := 0; a < fuzzHeapWords; a++ {
			if got, want := heap.Load(memsim.Addr(a)), binary.LittleEndian.Uint64(data[ckptHeader+8*a:]); got != want {
				t.Fatalf("accepted image restored word %d as %d, the image holds %d", a, got, want)
			}
		}
		if got, want := uint64(heap.Allocated()), binary.LittleEndian.Uint64(data[16:]); got != want {
			t.Fatalf("accepted image restored %d words allocated, its header names %d", got, want)
		}
	})
}
