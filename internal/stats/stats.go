// Package stats collects the execution metrics the paper's evaluation
// reports: committed transactions (throughput) and aborts discriminated
// by cause (§4: "we distinguish transactional aborts, ... non-transactional
// aborts, mostly caused by a locked SGL that kills ongoing transactions,
// ... and, of course, capacity aborts"), plus fall-back-path acquisitions.
//
// Counters are laid out one padded slot per simulated hardware thread so
// that the measurement machinery itself does not create false sharing
// between threads — the effect the benchmarks are trying to observe, not
// cause.
package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// AbortKind classifies why a transaction aborted: the paper's three
// causes, and no others.
type AbortKind int

const (
	// AbortTransactional: a conflicting transactional access (the other
	// party was itself inside a transaction).
	AbortTransactional AbortKind = iota
	// AbortNonTransactional: killed by a non-transactional access — in
	// practice an SGL acquisition, a quiescence-phase read, or any plain
	// store into a tracked line — or aborted by the transaction's own
	// lock-subscription check on a busy SGL.
	AbortNonTransactional
	// AbortCapacity: the transaction exceeded the (shared) TMCAM budget.
	AbortCapacity

	numAbortKinds
)

// NumAbortKinds is the number of distinct AbortKind values.
const NumAbortKinds = int(numAbortKinds)

// String returns the cause's one name, which is also its metric label
// value (the cause label of sihtm_tm_aborts_total).
func (k AbortKind) String() string {
	switch k {
	case AbortTransactional:
		return "conflict"
	case AbortNonTransactional:
		return "non_transactional"
	case AbortCapacity:
		return "capacity"
	default:
		return fmt.Sprintf("AbortKind(%d)", int(k))
	}
}

// threadSlot holds one thread's counters, padded to two cache lines so
// adjacent threads never share a line. The counter fields occupy
// (6+numAbortKinds)*8 = 72 bytes; the padding rounds the slot up to 256.
type threadSlot struct {
	commits   atomic.Uint64
	commitsRO atomic.Uint64 // subset of commits that took a read-only path
	aborts    [numAbortKinds]atomic.Uint64
	fallbacks atomic.Uint64 // commits that went through the SGL path
	waitSpins atomic.Uint64 // safety-wait / quiescence spin iterations
	hwROT     atomic.Uint64 // hardware transaction begins in ROT mode
	hwHTM     atomic.Uint64 // hardware transaction begins in regular HTM mode
	_         [256 - (6+numAbortKinds)*8]byte
}

// Collector accumulates per-thread counters. Create one per experiment run
// with New, hand Thread views to workers, and read totals with Snapshot.
type Collector struct {
	slots []threadSlot
}

// New returns a Collector for the given number of threads.
func New(threads int) *Collector {
	if threads <= 0 {
		panic(fmt.Sprintf("stats: thread count must be positive, got %d", threads))
	}
	return &Collector{slots: make([]threadSlot, threads)}
}

// Threads returns the number of thread slots.
func (c *Collector) Threads() int { return len(c.slots) }

// Thread returns the counter view for one thread. The returned value is
// cheap and may be stored per-worker.
func (c *Collector) Thread(id int) Thread {
	return Thread{slot: &c.slots[id]}
}

// Thread is a single thread's counter handle.
type Thread struct {
	slot *threadSlot
}

// Commit records a committed transaction. readOnly marks commits that used
// a read-only fast path.
func (t Thread) Commit(readOnly bool) {
	t.slot.commits.Add(1)
	if readOnly {
		t.slot.commitsRO.Add(1)
	}
}

// Abort records an aborted transaction attempt of the given kind.
func (t Thread) Abort(kind AbortKind) {
	t.slot.aborts[kind].Add(1)
}

// Fallback records a commit that was executed under the single global lock.
func (t Thread) Fallback() { t.slot.fallbacks.Add(1) }

// WaitSpins adds n quiescence/safety-wait spin iterations.
func (t Thread) WaitSpins(n uint64) { t.slot.waitSpins.Add(n) }

// HWBegin records one hardware transaction begin: rot distinguishes
// POWER rollback-only transactions from regular HTM mode. Software-only
// systems (sgl, silo) never call it and report zero through the same
// telemetry families, which is itself informative.
func (t Thread) HWBegin(rot bool) {
	if rot {
		t.slot.hwROT.Add(1)
	} else {
		t.slot.hwHTM.Add(1)
	}
}

// Stats is an immutable snapshot of a Collector (or a delta of two).
type Stats struct {
	Commits    uint64
	CommitsRO  uint64
	Aborts     [NumAbortKinds]uint64
	Fallbacks  uint64
	WaitSpins  uint64
	HWBeginROT uint64 `json:",omitempty"`
	HWBeginHTM uint64 `json:",omitempty"`
}

// Snapshot sums all thread slots.
func (c *Collector) Snapshot() Stats {
	var s Stats
	for i := range c.slots {
		sl := &c.slots[i]
		s.Commits += sl.commits.Load()
		s.CommitsRO += sl.commitsRO.Load()
		for k := 0; k < NumAbortKinds; k++ {
			s.Aborts[k] += sl.aborts[k].Load()
		}
		s.Fallbacks += sl.fallbacks.Load()
		s.WaitSpins += sl.waitSpins.Load()
		s.HWBeginROT += sl.hwROT.Load()
		s.HWBeginHTM += sl.hwHTM.Load()
	}
	return s
}

// Sub returns the delta s - earlier, counter-wise. It is used to discard
// warm-up activity.
func (s Stats) Sub(earlier Stats) Stats {
	d := Stats{
		Commits:    s.Commits - earlier.Commits,
		CommitsRO:  s.CommitsRO - earlier.CommitsRO,
		Fallbacks:  s.Fallbacks - earlier.Fallbacks,
		WaitSpins:  s.WaitSpins - earlier.WaitSpins,
		HWBeginROT: s.HWBeginROT - earlier.HWBeginROT,
		HWBeginHTM: s.HWBeginHTM - earlier.HWBeginHTM,
	}
	for k := 0; k < NumAbortKinds; k++ {
		d.Aborts[k] = s.Aborts[k] - earlier.Aborts[k]
	}
	return d
}

// TotalAborts sums aborts across kinds.
func (s Stats) TotalAborts() uint64 {
	var n uint64
	for k := 0; k < NumAbortKinds; k++ {
		n += s.Aborts[k]
	}
	return n
}

// Attempts is commits + aborts (each abort is one failed attempt).
func (s Stats) Attempts() uint64 { return s.Commits + s.TotalAborts() }

// AbortRate returns the fraction of attempts that aborted, in [0,1].
func (s Stats) AbortRate() float64 {
	att := s.Attempts()
	if att == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(att)
}

// AbortShare returns kind's share of all attempts, in [0,1]. The paper's
// abort panels stack exactly these shares.
func (s Stats) AbortShare(kind AbortKind) float64 {
	att := s.Attempts()
	if att == 0 {
		return 0
	}
	return float64(s.Aborts[kind]) / float64(att)
}

// CapacityShareMax is the capacity-abort share of attempts
// (AbortShare(AbortCapacity)) beyond which the paper's capacity cliff is
// underway: footprints sit at the TMCAM edge and retries are about to
// ruin both latency and throughput. The server's admission controller
// shrinks batches above it and the capacity-abort-share alert fires on
// it.
const CapacityShareMax = 0.02

// String renders a compact one-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d (ro=%d) aborts=%d [", s.Commits, s.CommitsRO, s.TotalAborts())
	for k := 0; k < NumAbortKinds; k++ {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", AbortKind(k), s.Aborts[k])
	}
	fmt.Fprintf(&b, "] fallbacks=%d", s.Fallbacks)
	return b.String()
}
