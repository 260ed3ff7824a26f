// Package p8tm implements the P8TM baseline (Issa et al., DISC'17) the
// paper compares against in §4.2: like SI-HTM it runs update transactions
// as ROTs (write-set-bounded capacity) and read-only transactions
// uninstrumented behind a quiescence scheme — but unlike SI-HTM it offers
// full serializability, which it buys with software instrumentation of
// every read of an update transaction.
//
// Faithfulness note (recorded in DESIGN.md): the original P8TM validates
// update-transaction read sets with a suspend/resume-based scheme on real
// hardware. This reproduction keeps its cost model and guarantees —
// per-read software logging, commit-time validation, quiescence before
// commit — using value-based read validation serialized by a short commit
// lock (NOrec-style), which yields the same serializable semantics and
// the same "pays for read tracking that SI-HTM avoids" performance shape.
// The paper disables P8TM's on-line self-tuning in its evaluation, and so
// does this package.
package p8tm

import (
	"sync"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/quiesce"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// Config tunes P8TM.
type Config struct {
	// Retries is the attempt budget per transaction before the SGL
	// fall-back. 0 means tm.DefaultRetries.
	Retries int
}

type readLogEntry struct {
	addr memsim.Addr
	val  uint64
}

// workerState is the per-thread scratch (read log, write filter).
type workerState struct {
	readLog  []readLogEntry
	writeSet []memsim.Addr
}

// System is the P8TM concurrency control: SI-HTM's state array and SGL
// fall-back (the embedded tm.Fallback; ROT commits reach a commit hook
// through the machine) plus the read log and its validation.
type System struct {
	tm.Fallback
	m       *htm.Machine
	retries int
	lock    *sgl.Lock
	state   *quiesce.Array
	commit  sync.Mutex // serializes validate+write-back
	col     *stats.Collector
	workers []workerState
}

// NewSystem builds P8TM for the first `threads` hardware threads of m.
func NewSystem(m *htm.Machine, threads int, cfg Config) *System {
	lock := sgl.New(m)
	return &System{
		Fallback: tm.NewFallback(threads),
		m:        m,
		retries:  cfg.Retries,
		lock:     lock,
		state:    quiesce.New(lock, threads, 0),
		col:      stats.New(threads),
		workers:  make([]workerState, threads),
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "p8tm" }

// Threads implements tm.System.
func (s *System) Threads() int { return s.col.Threads() }

// Collector implements tm.System.
func (s *System) Collector() *stats.Collector { return s.col }

// instrumentedOps is the update-transaction access path: reads go through
// the hardware (untracked, capacity-free) but are logged in software for
// commit-time validation — the per-read cost SI-HTM eliminates.
type instrumentedOps struct {
	tx *htm.Tx
	w  *workerState
}

func (o instrumentedOps) Read(a memsim.Addr) uint64 {
	v := o.tx.Read(a)
	o.w.readLog = append(o.w.readLog, readLogEntry{addr: a, val: v})
	return v
}

func (o instrumentedOps) Write(a memsim.Addr, v uint64) {
	o.tx.Write(a, v)
	o.w.writeSet = append(o.w.writeSet, a)
}

// validationFailed is what attempt reports when the read log did not
// validate: to the paper's abort taxonomy that is a data conflict, not
// the explicit abort the hardware saw.
var validationFailed = &htm.Abort{Code: htm.CodeTxConflict}

// Atomic implements tm.System.
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	th := s.m.Thread(thread)
	l := s.col.Thread(thread)

	if kind == tm.KindReadOnly {
		// Uninstrumented read-only path behind quiescence, as in SI-HTM.
		s.state.ReadOnly(thread, th, body)
		l.Commit(true)
		return
	}

	if !tm.Retry(s.retries, l, func() *htm.Abort { return s.attempt(thread, th, l, body) }) {
		s.lock.Acquire(th)
		s.state.Drain(thread)
		s.RunSerial(thread, th, l, body)
		s.lock.Release(th)
	}
	l.Commit(false)
}

// attempt runs one ROT attempt: SI-HTM's (announce, body, complete-and-
// wait, commit, inactive) with every read logged and the log validated
// between the safety wait and the hardware commit.
func (s *System) attempt(thread int, th *htm.Thread, l stats.Thread, body func(tm.Ops)) *htm.Abort {
	w := &s.workers[thread]
	w.readLog = w.readLog[:0]
	w.writeSet = w.writeSet[:0]

	s.state.Enter(thread, th)
	locked, validFail := false, false
	defer func() {
		if locked {
			s.commit.Unlock()
		}
		s.state.Exit(thread)
	}()
	l.HWBegin(true)
	ab := htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		body(instrumentedOps{tx: tx, w: w})
		s.state.CompleteAndWait(thread, tx, l)

		// Validate + write back under the commit lock so no other update
		// transaction's write-back interleaves with our validation. Both
		// validation reads and the commit (htm.Run's, when this closure
		// returns) can unwind with an abort — the transaction may still
		// be doomed by a concurrent reader — so the unlock is deferred
		// above, around htm.Run.
		s.commit.Lock()
		locked = true
		if !s.validate(tx, w) {
			validFail = true
			tx.AbortExplicit()
		}
	})
	if ab != nil && validFail {
		return validationFailed
	}
	return ab
}

// validate re-reads the logged read set and compares values, skipping
// addresses the transaction itself wrote afterwards (those are protected
// by the hardware's write-write conflict detection).
func (s *System) validate(tx *htm.Tx, w *workerState) bool {
	for _, e := range w.readLog {
		if w.wrote(e.addr) {
			continue
		}
		if tx.Read(e.addr) != e.val {
			return false
		}
	}
	return true
}

func (w *workerState) wrote(a memsim.Addr) bool {
	for _, wa := range w.writeSet {
		if wa == a {
			return true
		}
	}
	return false
}

var _ tm.HookableSystem = (*System)(nil)
