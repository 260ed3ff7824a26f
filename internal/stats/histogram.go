package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a concurrency-safe latency histogram with logarithmic
// buckets: each power-of-two octave of nanoseconds is split into four
// linear sub-buckets, so quantile estimates carry at most ~25% relative
// error across the whole 1ns..~4.5min range — plenty for the p50/p99
// panels of the networked service layer, at the cost of one atomic add
// per observation and no allocation.
//
// The zero value is ready to use. Snapshots subtract (HistogramSnapshot
// .Sub), which is how measurement windows are carved out of a live
// server's histogram without resetting it under traffic.
type Histogram struct {
	sum     atomic.Uint64 // total observed nanoseconds
	buckets [histSlots]atomic.Uint64
}

const (
	// histSubBits sub-divides each octave into 2^histSubBits linear
	// sub-buckets.
	histSubBits = 2
	histSub     = 1 << histSubBits
	// histOctaves sizes the slot table; with the contiguous mapping of
	// histSlot the top slot ends at 2^(histOctaves+1) ns (~9 minutes) and
	// larger values clamp into it.
	histOctaves = 38
	histSlots   = histOctaves * histSub
)

// histSlot maps a nanosecond value to its bucket index. Values below
// histSub get one exact slot each; octave o ≥ histSubBits contributes
// histSub slots starting at (o-histSubBits+1)·histSub, which tiles the
// range contiguously.
func histSlot(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	octave := bits.Len64(ns) - 1
	sub := (ns >> (uint(octave) - histSubBits)) & (histSub - 1)
	slot := (octave-histSubBits+1)*histSub + int(sub)
	if slot >= histSlots {
		slot = histSlots - 1
	}
	return slot
}

// histBounds returns the [lo, hi) nanosecond range of one slot.
func histBounds(slot int) (lo, hi uint64) {
	if slot < histSub {
		return uint64(slot), uint64(slot) + 1
	}
	octave := slot/histSub + histSubBits - 1
	sub := uint64(slot % histSub)
	width := uint64(1) << (uint(octave) - histSubBits)
	lo = (uint64(1) << uint(octave)) + sub*width
	return lo, lo + width
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	h.sum.Add(ns)
	h.buckets[histSlot(ns)].Add(1)
}

// Snapshot copies the current counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.SumNs = h.sum.Load()
	s.Counts = make([]uint64, histSlots)
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// SnapshotInto copies the current counters into dst, reusing dst's
// Counts buffer when it has capacity — the allocation-free scrape path
// (internal/tsdb's snapshot ring pins zero steady-state allocs on it).
func (h *Histogram) SnapshotInto(dst *HistogramSnapshot) {
	dst.SumNs = h.sum.Load()
	if cap(dst.Counts) < histSlots {
		dst.Counts = make([]uint64, histSlots)
	}
	dst.Counts = dst.Counts[:histSlots]
	for i := range h.buckets {
		dst.Counts[i] = h.buckets[i].Load()
	}
}

// HistogramSnapshot is an immutable copy of a Histogram (or the delta of
// two). It serializes to JSON, which is how server stats travel over the
// wire protocol's control plane.
type HistogramSnapshot struct {
	Counts []uint64 `json:"counts"`
	SumNs  uint64   `json:"sum_ns"`
}

// Sub returns the delta s - earlier, bucket-wise: the observations of a
// measurement window. Snapshots of different shapes (e.g. a zero-value
// snapshot) subtract as if missing buckets were zero.
func (s HistogramSnapshot) Sub(earlier HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{SumNs: s.SumNs - earlier.SumNs}
	d.Counts = make([]uint64, len(s.Counts))
	copy(d.Counts, s.Counts)
	for i := range earlier.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= earlier.Counts[i]
		}
	}
	return d
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(s.SumNs / n)
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear
// interpolation inside the bucket holding the target rank. The estimate
// is within one sub-bucket width of the true value (~25% relative).
//
// An empty snapshot (no observations — including a Sub delta over a
// quiet window) returns the documented sentinel 0. Callers that must
// distinguish "no data" from "genuinely ~0ns" use QuantileOK.
func (s HistogramSnapshot) Quantile(p float64) time.Duration {
	q, _ := s.QuantileOK(p)
	return q
}

// QuantileOK is Quantile with an explicit validity bit: ok is false —
// and the quantile 0 — when the snapshot holds no observations, so a
// measurement window that saw no traffic is never mistaken for one
// whose latencies were all zero.
func (s HistogramSnapshot) QuantileOK(p float64) (q time.Duration, ok bool) {
	total := s.Count()
	if total == 0 {
		return 0, false
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(total)
	var cum float64
	for slot, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := histBounds(slot)
			frac := (target - cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo)), true
		}
		cum = next
	}
	// All mass below target (p == 1 rounding): the top occupied bucket.
	for slot := len(s.Counts) - 1; slot >= 0; slot-- {
		if s.Counts[slot] > 0 {
			_, hi := histBounds(slot)
			return time.Duration(hi), true
		}
	}
	return 0, false
}

// NumHistogramBuckets is the bucket count of every Histogram (and of
// the Counts slice of every non-empty snapshot).
const NumHistogramBuckets = histSlots

// HistogramBucketBounds returns the [lo, hi) nanosecond range of one
// bucket slot, exported for renderers (the telemetry registry's
// Prometheus text format) that must translate bucket counts back into
// value boundaries.
func HistogramBucketBounds(slot int) (loNs, hiNs uint64) { return histBounds(slot) }
