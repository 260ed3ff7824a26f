package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie beyond a percentile
// for it to be reported (choosing-metrics: "the highest percentile that
// has at least ten samples beyond it").
const minBeyond = 10

// recorder keeps exact latencies: one preallocated []int64 per slice,
// written by a single goroutine, sorted once after the phase. The
// benchmark never derives an end-to-end percentile from a bucketed
// histogram: stats.Histogram's buckets are up to 25 % wide, wider than
// the regression bounds.
type recorder struct {
	slices  [][]int64
	dropped int // samples that did not fit the preallocation
}

func newRecorder(slices, capPerSlice int) *recorder {
	r := &recorder{slices: make([][]int64, slices)}
	for i := range r.slices {
		r.slices[i] = make([]int64, 0, capPerSlice)
	}
	return r
}

// add records one latency in nanoseconds. It never allocates: a sample
// past the preallocated capacity is counted in dropped instead.
func (r *recorder) add(slice int, ns int64) {
	s := r.slices[slice]
	if len(s) == cap(s) {
		r.dropped++
		return
	}
	r.slices[slice] = append(s, ns)
}

// mergeSorted returns the sorted samples of one slice across recorders
// (one recorder per worker thread or connection).
func mergeSorted(recs []*recorder, slice int) []int64 {
	n := 0
	for _, r := range recs {
		n += len(r.slices[slice])
	}
	all := make([]int64, 0, n)
	for _, r := range recs {
		all = append(all, r.slices[slice]...)
	}
	slices.Sort(all)
	return all
}

// quantile is the nearest-rank q-quantile of sorted samples. ok is false
// when fewer than minBeyond samples lie beyond it (the median is exempt:
// it is reported for any non-empty sample).
func quantile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], q <= 0.5 || n-1-idx >= minBeyond
}

// spread summarises one metric over the slices of a phase. Quiet is the
// reported value: the slice a tenth of the way in from the best end (the
// 90th percentile of a metric where higher is better, the 10th where
// lower is). On a shared host the disturbances are one-sided — a stall
// or a noisy neighbour only ever slows a slice down — so the quiet end of
// the slices says what the program does and the rest says what the host
// did; measured over ten runs the quiet decile repeats two to three times
// more closely than the median (README.md, "Why the quiet decile").
// Median, Min and Max are printed beside it as the spread.
type spread struct {
	Quiet, Median, Min, Max float64
	N                       int
}

func summarise(vals []float64, higherIsBetter bool) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	q := s[(len(s)-1)/10]
	if higherIsBetter {
		q = s[len(s)-1-(len(s)-1)/10]
	}
	return spread{Quiet: q, Median: m, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// unresolved reports whether the typical slice is further from the quiet
// one than twice the metric's bound: the host was then disturbed for most
// of the phase, and a regression of the size the bound allows could not
// be told from it.
func (s spread) unresolved(bound float64) bool {
	if s.N < 2 || s.Quiet == 0 {
		return false
	}
	return math.Abs(s.Median-s.Quiet)/math.Abs(s.Quiet) > 2*bound
}
