package crashtest

import (
	"bytes"
	"testing"

	"sihtm/internal/rng"
)

func build(t *testing.T) *Harness {
	t.Helper()
	h, err := Build(t.TempDir(), 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if h.Records < 100 {
		t.Fatalf("harness produced only %d records", h.Records)
	}
	return h
}

// TestIntactImage: the unmutilated log recovers the full history.
func TestIntactImage(t *testing.T) {
	h := build(t)
	if err := h.CheckImage(h.Image, h.Records); err != nil {
		t.Fatal(err)
	}
}

// TestKillAtRandomOffsets truncates the log at randomized byte offsets
// — the on-disk outcome of a crash mid-write — and asserts every
// truncation recovers exactly the commits whose records fit, with the
// torn tail discarded.
func TestKillAtRandomOffsets(t *testing.T) {
	h := build(t)
	r := rng.New(0xC0FFEE)
	for i := 0; i < 200; i++ {
		cut := r.Intn(len(h.Image) + 1)
		if err := h.CheckImage(h.Image[:cut], h.DurableRecords(cut)); err != nil {
			t.Fatalf("truncation at byte %d: %v", cut, err)
		}
	}
	// Exhaustive sweep over the first few records' bytes, where header
	// fields and CRC boundaries live.
	limit := h.Bounds[min(4, h.Records)]
	for cut := 0; cut <= limit; cut++ {
		if err := h.CheckImage(h.Image[:cut], h.DurableRecords(cut)); err != nil {
			t.Fatalf("truncation at byte %d: %v", cut, err)
		}
	}
}

// TestBitFlips flips random bytes mid-log: the per-record CRC must
// confine recovery to the prefix before the flip.
func TestBitFlips(t *testing.T) {
	h := build(t)
	r := rng.New(0xBADF00D)
	for i := 0; i < 200; i++ {
		pos := r.Intn(len(h.Image))
		img := bytes.Clone(h.Image)
		img[pos] ^= byte(1 + r.Intn(255))
		// The flip may land anywhere in record k's bytes, so only
		// records fully before it are guaranteed; nothing past the
		// flipped record may survive.
		k := h.DurableRecords(pos)
		if err := h.CheckImage(img, 0); err != nil {
			t.Fatalf("bit flip at byte %d: %v", pos, err)
		}
		// Tighter: recovery must keep at least the records strictly
		// before the flipped one (their bytes are untouched).
		if err := h.CheckImage(img[:h.Bounds[k]], k); err != nil {
			t.Fatalf("bit flip at byte %d, clean prefix: %v", pos, err)
		}
	}
}

// TestZeroedSpans zeroes 16-byte spans (a lost sector in miniature).
func TestZeroedSpans(t *testing.T) {
	h := build(t)
	r := rng.New(0xDEAD10CC)
	for i := 0; i < 100; i++ {
		pos := r.Intn(len(h.Image))
		img := bytes.Clone(h.Image)
		for j := pos; j < pos+16 && j < len(img); j++ {
			img[j] = 0
		}
		if err := h.CheckImage(img, 0); err != nil {
			t.Fatalf("zeroed span at byte %d: %v", pos, err)
		}
	}
}

// TestGarbageTail appends random bytes past the valid log: replay must
// still accept the full history and discard the garbage.
func TestGarbageTail(t *testing.T) {
	h := build(t)
	r := rng.New(0xFEEDFACE)
	img := bytes.Clone(h.Image)
	for i := 0; i < 333; i++ {
		img = append(img, byte(r.Intn(256)))
	}
	if err := h.CheckImage(img, h.Records); err != nil {
		t.Fatal(err)
	}
}
