// Package sgl provides the single global lock used as the serial
// fall-back path by the HTM-based systems, plus a complete (if trivially
// serial) tm.System built on it, which doubles as a correctness oracle in
// tests.
//
// The lock word lives in the simulated heap so that hardware transactions
// can subscribe to it with a transactional read: the acquisition store is
// then a plain store to a tracked line and kills every subscriber with a
// non-transactional conflict — the exact mechanism the paper's abort
// breakdown attributes "non-transactional aborts, mostly caused by a
// locked SGL".
package sgl

import (
	"runtime"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// unlocked is the lock word value when free. A holder stores its thread
// id + 1.
const unlocked = 0

// Lock is a test-and-test-and-set global lock over a heap cache line.
type Lock struct {
	addr memsim.Addr
}

// New allocates the lock word on its own cache line of m's heap. The
// line is volatile: a hold is not logged, so a checkpoint must not
// capture one.
func New(m *htm.Machine) *Lock {
	return &Lock{addr: m.Heap().AllocVolatileLine()}
}

// Addr returns the lock word's address, which transactions read to
// subscribe to the lock.
func (l *Lock) Addr() memsim.Addr { return l.addr }

// IsLocked reports whether the lock is held, via a plain load.
func (l *Lock) IsLocked(th *htm.Thread) bool {
	return th.Load(l.addr) != unlocked
}

// HeldBy reports whether the lock is held by the given thread.
func (l *Lock) HeldBy(th *htm.Thread) bool {
	return th.Load(l.addr) == uint64(th.ID())+1
}

// Acquire spins until it owns the lock. The winning compare-and-swap
// dooms every transaction subscribed to the lock word.
func (l *Lock) Acquire(th *htm.Thread) {
	for {
		if th.Load(l.addr) == unlocked &&
			th.CompareAndSwap(l.addr, unlocked, uint64(th.ID())+1) {
			return
		}
		runtime.Gosched()
	}
}

// Release frees the lock. It panics if the caller does not hold it.
func (l *Lock) Release(th *htm.Thread) {
	if !l.HeldBy(th) {
		panic("sgl: Release by non-holder")
	}
	th.Store(l.addr, unlocked)
}

// WaitUnlocked spins until the lock is observed free.
func (l *Lock) WaitUnlocked(th *htm.Thread) {
	for l.IsLocked(th) {
		runtime.Gosched()
	}
}

// System is the all-serial concurrency control: every transaction runs
// under the global lock, on the serial path the other systems fall back
// to (the embedded tm.Fallback, which with a commit hook installed routes
// every write set into the durability seam). It is the degenerate
// baseline and the correctness oracle for the others.
type System struct {
	tm.Fallback
	m    *htm.Machine
	lock *Lock
	col  *stats.Collector
}

// NewSystem builds an SGL system for the first `threads` hardware threads
// of m.
func NewSystem(m *htm.Machine, threads int) *System {
	return &System{
		Fallback: tm.NewFallback(threads),
		m:        m,
		lock:     New(m),
		col:      stats.New(threads),
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "sgl" }

// Threads implements tm.System.
func (s *System) Threads() int { return s.col.Threads() }

// Collector implements tm.System.
func (s *System) Collector() *stats.Collector { return s.col }

// Atomic implements tm.System by serialising body under the global lock.
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	th := s.m.Thread(thread)
	l := s.col.Thread(thread)
	s.lock.Acquire(th)
	defer s.lock.Release(th)
	s.RunSerial(thread, th, l, body)
	l.Commit(kind == tm.KindReadOnly)
}

var _ tm.HookableSystem = (*System)(nil)
