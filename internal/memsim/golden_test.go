package memsim_test

import (
	"testing"

	"sihtm/internal/experiments"
)

// The digest of a fixed built base is a property of the simulated image
// alone, not of where the host keeps its words: a run directory's
// base_digest written by an older build must still match a rebuild. The
// value was taken when lines were stored contiguously, before the heap
// was banked by half-line.
func TestServedBaseDigestGolden(t *testing.T) {
	const want = "c37a636e34bb6b1f"
	m, _, err := experiments.BuildServed("ycsb-a", "ci", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Heap().Digest(); got != want {
		t.Fatalf("ycsb-a ci base digest = %s, want %s", got, want)
	}
}
