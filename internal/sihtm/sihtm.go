// Package sihtm implements SI-HTM, the paper's contribution: a restricted,
// single-version implementation of Snapshot Isolation built from the
// POWER8 HTM's rollback-only transactions (ROTs) plus a software-regulated
// quiescence ("safety wait") before the hardware commit.
//
// Update transactions execute as ROTs — capacity-bounded only by their
// write set — and, once complete, publish a "completed" state and wait
// until every transaction that was active when they completed has
// finished (Algorithm 1). Read-only transactions run entirely outside the
// hardware, uninstrumented, announcing themselves through the same state
// array so writers quiesce on them (Algorithm 2). A single-global-lock
// fall-back path guarantees progress; as the paper's footnote 2 notes,
// early lock subscription is impossible here, so the lock is checked at
// begin time and the lock holder explicitly drains active transactions.
//
// The package also implements the paper's §6 future-work sketches as
// opt-in policies: a killing policy (a completed transaction kills
// laggards that prolong its quiescence) and a batching interface (running
// several transactions inside one ROT + one quiescence).
package sihtm

import (
	"sihtm/internal/htm"
	"sihtm/internal/quiesce"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// Config tunes SI-HTM.
type Config struct {
	// Retries is the ROT attempt budget per transaction before the SGL
	// fall-back. 0 means tm.DefaultRetries.
	Retries int
	// DisableROFastPath forces read-only transactions through the update
	// path (ROT + safety wait). Used by the quiescence-cost ablation.
	DisableROFastPath bool
	// KillerSpins, when > 0, enables the §6 killing policy: a completed
	// transaction that has spun this many times waiting for one laggard
	// kills the laggard's transaction (read-only fast-path transactions
	// cannot be killed and are always waited out).
	KillerSpins int
}

// System is the SI-HTM concurrency control. Its SGL fall-back is the
// embedded tm.Fallback; its ROT commits and its fall-back commits alike
// reach the machine's commit hook (htm.CommitHook).
type System struct {
	tm.Base
	tm.Fallback
	m     *htm.Machine
	cfg   Config
	lock  *sgl.Lock
	state *quiesce.Array
}

// NewSystem builds SI-HTM for the first `threads` hardware threads of m.
func NewSystem(m *htm.Machine, threads int, cfg Config) *System {
	lock := sgl.New(m)
	return &System{
		Base:     tm.NewBase("si-htm", threads),
		Fallback: tm.NewFallback(threads),
		m:        m,
		cfg:      cfg,
		lock:     lock,
		state:    quiesce.New(lock, threads, cfg.KillerSpins),
	}
}

// Atomic implements tm.System.
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	if kind == tm.KindReadOnly && !s.cfg.DisableROFastPath {
		s.state.ReadOnly(thread, s.m.Thread(thread), body)
		s.Collector().Thread(thread).Commit(true)
		return
	}
	s.update(thread, kind == tm.KindReadOnly, 1, body)
}

// update commits body as one update transaction — ROT attempts under
// tm.Retry's budget, then the SGL fall-back — and accounts it as
// `commits` committed transactions (more than one for AtomicBatch).
func (s *System) update(thread int, readOnly bool, commits int, body func(tm.Ops)) {
	th := s.m.Thread(thread)
	l := s.Collector().Thread(thread)
	if !tm.Retry(s.cfg.Retries, l, func() *htm.Abort { return s.attempt(thread, th, l, body) }) {
		// Fall-back: acquire the global lock, drain every active
		// transaction, then run serially and non-transactionally.
		s.lock.Acquire(th)
		s.state.Drain(thread)
		s.RunSerial(thread, th, l, body)
		s.lock.Release(th)
	}
	for ; commits > 0; commits-- {
		l.Commit(readOnly)
	}
}

// attempt runs one ROT attempt: announce (SyncWithGL), body with
// uninstrumented reads, then Algorithm 1's TxEnd — complete-and-wait,
// hardware commit (htm.Run commits when its body returns), inactive.
func (s *System) attempt(thread int, th *htm.Thread, l stats.Thread, body func(tm.Ops)) *htm.Abort {
	s.state.Enter(thread, th)
	defer s.state.Exit(thread)
	l.HWBegin(true)
	return htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		s.state.Expose(thread, tx)
		body(tx)
		s.state.CompleteAndWait(thread, tx, l)
	})
}
