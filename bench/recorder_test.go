package main

import (
	"math"
	"testing"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestQuantileKnownArrays(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{101, 0.50, 51, true},
		{1, 0.50, 1, true},     // the median is reported for any sample
		{100, 0.99, 99, false}, // one sample beyond p99
		{2000, 0.99, 1980, true},
		{1000, 0.99, 990, true}, // exactly minBeyond samples beyond
		{999, 0.99, 990, false}, // one short
		{5000, 0.999, 4995, false},
	} {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(1..%d, %g) = %d, %t; want %d, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported ok")
	}
}

func TestRecorderKeepsExactSamplesWithoutAllocating(t *testing.T) {
	r := newRecorder(2, 4)
	for _, v := range []int64{30, 10, 20} {
		r.add(0, v)
	}
	r.add(1, 7)
	other := newRecorder(2, 4)
	other.add(0, 15)
	got := mergeSorted([]*recorder{r, other}, 0)
	want := []int64{10, 15, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
	// Past the preallocation a sample is counted, not stored.
	r.add(0, 1)
	r.add(0, 2)
	if r.dropped != 1 || len(r.slices[0]) != 4 {
		t.Errorf("dropped=%d len=%d, want 1 and 4", r.dropped, len(r.slices[0]))
	}
	big := newRecorder(1, 1<<12)
	if n := testing.AllocsPerRun(1000, func() { big.add(0, 5) }); n != 0 {
		t.Errorf("add allocates %v times per call", n)
	}
}

// A host stall spoils the slices it overlaps, not the result: neither the
// median nor the quiet decile of the slices moves.
func TestStalledSlicesDoNotMoveTheResult(t *testing.T) {
	five := []float64{100, 101, 99, 100.5, 99.5}
	stalled := []float64{100, 101, 12, 100.5, 99.5} // one slice out of five stalled
	if a, b := summarise(five, true), summarise(stalled, true); a.Median != 100 || b.Median != 100 {
		t.Errorf("medians %g and %g, want 100 and 100", a.Median, b.Median)
	}

	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = 1000 + float64(i%5) // 1000..1004
	}
	quiet := summarise(forty, true)
	for _, i := range []int{3, 4, 5, 17, 29, 30} { // six of forty slices stalled
		forty[i] /= 10
	}
	disturbed := summarise(forty, true)
	// The quiet decile does not move at all; the median by the distance
	// between neighbouring healthy slices (0.1 % here), not by the stalls.
	if quiet.Quiet != disturbed.Quiet || math.Abs(quiet.Median-disturbed.Median) > 1 {
		t.Errorf("stalls moved the result: quiet %g -> %g, median %g -> %g",
			quiet.Quiet, disturbed.Quiet, quiet.Median, disturbed.Median)
	}
	if disturbed.Min >= 200 || disturbed.Max != 1004 {
		t.Errorf("spread [%g, %g] does not show the stalls", disturbed.Min, disturbed.Max)
	}
}

func TestQuietDecileTakesTheBetterEnd(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..40
	}
	if s := summarise(vals, true); s.Quiet != 37 || s.Median != 20.5 || s.Min != 1 || s.Max != 40 || s.N != 40 {
		t.Errorf("higher is better: %+v", s)
	}
	if s := summarise(vals, false); s.Quiet != 4 {
		t.Errorf("lower is better: quiet %g, want 4", s.Quiet)
	}
	if s := summarise([]float64{7}, false); s.Quiet != 7 || s.Median != 7 {
		t.Errorf("one slice: %+v", s)
	}
}

func TestUnresolved(t *testing.T) {
	calm := spread{Quiet: 100, Median: 95, N: 40}
	rough := spread{Quiet: 100, Median: 45, N: 40}
	if calm.unresolved(0.25) {
		t.Error("median 5% from the quiet decile called unresolved at a 25% bound")
	}
	if !rough.unresolved(0.25) {
		t.Error("median 55% from the quiet decile not called unresolved at a 25% bound")
	}
	if (spread{Quiet: 100, Median: 45, N: 1}).unresolved(0.25) {
		t.Error("a single slice cannot be unresolved")
	}
}
