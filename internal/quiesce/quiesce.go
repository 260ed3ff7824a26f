// Package quiesce is the single home of the state array that the paper's
// Algorithms 1 and 2 share: one padded word per thread holding inactive,
// completed or a begin stamp, and the handshake with the single global
// lock. SI-HTM and P8TM both quiesce through it; what distinguishes them
// (read instrumentation, validation, the killing policy's threshold)
// stays in their own packages.
//
// The paper stamps a thread's state word at begin with the POWER
// timebase register (mftb), read on the thread's own core. Stamps here
// are per thread as well: each slot counts its own begins, and only the
// slot's thread advances the count, so a transaction's announcement
// writes no line another thread writes. Algorithm 1 never orders two
// threads' stamps. A completed transaction snapshots every slot and
// waits on each only while that slot still holds its snapshot value, so
// all a stamp needs is to differ from every earlier value of its own
// slot (a later transaction on that thread must not pass for the one the
// waiter saw) and from the reserved inactive and completed. Equal stamps
// in two slots are harmless: no one compares them.
package quiesce

import (
	"runtime"
	"sync/atomic"

	"sihtm/internal/htm"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// Reserved state-word values from Algorithm 1. A stamp returned by
// now is always strictly greater than completed.
const (
	inactive  uint64 = 0
	completed uint64 = 1
)

// slot is one thread's entry in Algorithm 1's shared state array, padded
// to its own cache line. v holds inactive (0), completed (1), or the
// begin stamp; cur exposes the thread's live ROT to the killing policy;
// stamp is the last begin stamp issued, which only the slot's thread
// reads or writes.
type slot struct {
	v     atomic.Uint64
	cur   atomic.Pointer[htm.Tx]
	stamp uint64
	_     [104]byte
}

// now issues the slot's next begin stamp, strictly greater than every
// stamp it issued before and than completed (the first is completed+1).
func (s *slot) now() uint64 {
	s.stamp++
	return s.stamp + completed
}

// Array is the state array plus everything Algorithms 1 and 2 do with it.
type Array struct {
	lock        *sgl.Lock
	killerSpins uint64
	slots       []slot
	snaps       [][]uint64 // per-thread scratch for the state snapshot
}

// New builds the state array for `threads` threads quiescing against
// lock. killerSpins > 0 enables the §6 killing policy: a completed
// transaction that has spun this many times waiting for one laggard
// kills the laggard's exposed ROT (see Expose); 0 means never kill.
func New(lock *sgl.Lock, threads, killerSpins int) *Array {
	a := &Array{
		lock:        lock,
		killerSpins: uint64(max(killerSpins, 0)),
		slots:       make([]slot, threads),
		snaps:       make([][]uint64, threads),
	}
	for i := range a.snaps {
		a.snaps[i] = make([]uint64, threads)
	}
	return a
}

// Enter is Algorithm 2's SyncWithGL: announce activity with a fresh
// begin stamp, then retract and wait if the global lock is held,
// retrying until the announcement sticks while the lock is free. As the
// paper's footnote 2 notes, early lock subscription is impossible for
// ROTs and non-transactional readers, so the lock is checked here, at
// begin time, and the lock holder explicitly drains (Drain).
func (a *Array) Enter(thread int, th *htm.Thread) {
	s := &a.slots[thread]
	v := &s.v
	for {
		v.Store(s.now())
		if !a.lock.IsLocked(th) {
			return
		}
		v.Store(inactive)
		a.lock.WaitUnlocked(th)
	}
}

// Exit marks the thread inactive. Every Enter is paired with an Exit on
// every path out of the transaction — commit, abort, or a panic
// unwinding through the body — because a word left at its begin
// stamp stalls every peer's safety wait and the lock holder's drain.
func (a *Array) Exit(thread int) {
	a.slots[thread].v.Store(inactive)
}

// ReadOnly is Algorithm 2's read-only fast path: the body runs
// uninstrumented, outside the hardware, with unbounded capacity, and
// never aborts. The state announcement is what makes writers quiesce on
// it. Thread.ReadOnly checks once per transaction that the thread runs
// no hardware transaction, so the body's loads need not.
func (a *Array) ReadOnly(thread int, th *htm.Thread, body func(tm.Ops)) {
	a.Enter(thread, th)
	// The atomic store in Exit plays the role of the lwsync: all reads
	// above complete before the state change is visible.
	defer a.Exit(thread)
	body(th.ReadOnly())
}

// Expose publishes the thread's live ROT so that a completed peer whose
// safety wait on it exceeds the killing threshold can kill it. Read-only
// fast-path transactions expose nothing and are always waited out; a
// stale handle is harmless, since killing a dead transaction is a no-op.
func (a *Array) Expose(thread int, tx *htm.Tx) {
	if a.killerSpins > 0 {
		a.slots[thread].cur.Store(tx)
	}
}

// CompleteAndWait is Algorithm 1's TxEnd up to, not including, the
// hardware commit: suspend, publish completed, resume, snapshot the
// state array, and wait until every transaction that was active at the
// snapshot has finished. It unwinds with the ROT's abort if tx is doomed
// meanwhile; the caller commits tx and then calls Exit.
func (a *Array) CompleteAndWait(thread int, tx *htm.Tx, l stats.Thread) {
	// The state update must be non-transactional — inside the ROT it
	// would consume capacity and, worse, every peer snapshotting our
	// state would kill us.
	tx.Suspend()
	a.slots[thread].v.Store(completed)
	tx.Resume() // delivers any conflict that landed while suspended

	snap := a.snaps[thread]
	for c := range a.slots {
		snap[c] = a.slots[c].v.Load()
	}
	// Safety wait: every thread that was running a transaction when we
	// completed must finish before we make our writes visible.
	for c := range a.slots {
		if c == thread || snap[c] <= completed {
			continue
		}
		spins := uint64(0)
		for a.slots[c].v.Load() == snap[c] {
			tx.Poll() // a doomed waiter must stop waiting
			spins++
			if spins == a.killerSpins {
				if victim := a.slots[c].cur.Load(); victim != nil {
					victim.Kill()
				}
			}
			runtime.Gosched()
		}
		l.WaitSpins(spins)
	}
}

// Drain waits until no other thread has an announced transaction.
// Called with the global lock held: newcomers observe the lock in Enter
// and stand down, so the wait terminates.
func (a *Array) Drain(thread int) {
	for c := range a.slots {
		if c == thread {
			continue
		}
		for a.slots[c].v.Load() != inactive {
			runtime.Gosched()
		}
	}
}
