// Package htmtm is the plain-HTM concurrency control the paper uses as
// its primary baseline ("HTM" in every figure): each transaction runs as
// a regular hardware transaction with early lock subscription, retrying a
// bounded number of times before serialising on the single-global-lock
// fall-back path.
//
// Because regular transactions track reads and writes, this system pays
// the full TMCAM capacity cost the paper's §2.2 describes — large
// transactions abort on capacity, escalate to the SGL, and the SGL kills
// every subscribed transaction (non-transactional aborts), which is
// precisely the collapse visible in the HTM curves of Figures 6–10.
package htmtm

import (
	"sihtm/internal/htm"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// Config tunes the system.
type Config struct {
	// Retries is the hardware attempt budget per transaction before the
	// SGL fall-back. 0 means tm.DefaultRetries.
	Retries int
}

// System is the plain-HTM concurrency control. Its SGL fall-back is the
// embedded tm.Fallback.
type System struct {
	tm.Fallback
	m       *htm.Machine
	lock    *sgl.Lock
	retries int
	col     *stats.Collector
}

// NewSystem builds the baseline for the first `threads` hardware threads
// of m.
func NewSystem(m *htm.Machine, threads int, cfg Config) *System {
	return &System{
		Fallback: tm.NewFallback(threads),
		m:        m,
		lock:     sgl.New(m),
		retries:  cfg.Retries,
		col:      stats.New(threads),
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "htm" }

// Threads implements tm.System.
func (s *System) Threads() int { return s.col.Threads() }

// Collector implements tm.System.
func (s *System) Collector() *stats.Collector { return s.col }

// Atomic implements tm.System: regular hardware transaction with early
// lock subscription, retried under tm.Retry's budget (capacity aborts
// carry the POWER TEXASR persistence hint), then the SGL path.
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	th := s.m.Thread(thread)
	l := s.col.Thread(thread)
	committed := tm.Retry(s.retries, l, func() *htm.Abort {
		// Don't even start while the lock is held — we would abort
		// immediately on subscription.
		s.lock.WaitUnlocked(th)
		l.HWBegin(false)
		return htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
			// Early subscription: a transactional read of the lock word.
			// If the lock is taken we must not run; if it is taken later,
			// the holder's store kills us through this tracked line.
			if tx.Read(s.lock.Addr()) != 0 {
				tx.AbortExplicit()
			}
			body(tx)
		})
	})
	if !committed {
		// Fall-back: serialise under the global lock. The acquisition
		// store dooms all subscribed transactions.
		s.lock.Acquire(th)
		// A subscriber that had already entered its hardware commit when
		// the acquisition landed survives the doom and may still be
		// publishing; wait it out so that, with a commit hook installed,
		// this fall-back's redo record is sequenced after every commit
		// that raced the acquisition (without a hook the machine tracks
		// no in-flight commits and the wait returns at once). No new
		// commit can start: every attempt subscribes first and the lock
		// is now held.
		s.m.QuiesceCommits()
		s.RunSerial(thread, th, l, body)
		s.lock.Release(th)
	}
	l.Commit(kind == tm.KindReadOnly)
}

var _ tm.HookableSystem = (*System)(nil)
