package htm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sihtm/internal/memsim"
)

// The directory plays the role of the cache-coherence fabric: it knows,
// per cache line, which live transaction holds the line in its write set
// (at most one, exclusive) and which regular-mode transactions track it
// in their read set. Every simulated memory access consults the
// directory to detect conflicts exactly as a coherence snoop would.
//
// The write side is one ownership word per heap cache line,
// Machine.owner: 0 when no transaction holds the line, otherwise
// incarnation<<idBits | hardware-thread id+1. The thread field names the
// owner (&m.threads[id].tx, one indexed load); the incarnation, bumped by
// every Thread.Begin, tells that thread's transactions apart. The read
// side is a sparse, sharded mutex+map table of tracked readers (HTM-mode
// reads, SGL subscription), gated by the lock-free shard.readers count.
// A ROT that writes, reads untracked and commits — all of SI-HTM — never
// takes a mutex or touches a map, which is the paper's premise: conflicts
// are resolved per line in the fabric at no software cost.
//
// The protocol:
//
//  1. Claim (claimWrite). Load the word. If it names a live transaction,
//     re-load, and if unchanged self-abort with CodeTxConflict ("the last
//     writer is killed"); conflict is checked before capacity. Charge the
//     TMCAM unless the line is already in the claimant's read set. Then
//     CompareAndSwap(old, mine). A non-zero word whose owner is doomed
//     but has not yet cleaned up is stolen by that same CAS.
//  2. The incarnation tag is what makes the steal safe. Without it a
//     stealer could find the owner dead, the owner could clean up,
//     restart and re-claim the same line, and the stealer's CAS would
//     then succeed against a live owner (ABA) and lose an update. The
//     tag has 32-idBits bits (25 on the paper's 80-thread topology,
//     never fewer than 16), so it repeats only if the owner begins an
//     exact multiple of 2^(32-idBits) transactions inside one stealer's
//     load→CAS window. A doom aimed at the owner named by a word can
//     land on that thread's next incarnation in the same window: a
//     spurious abort (quiesce's stale Kill handle can already cause
//     one), never a missed doom.
//  3. Load of an owned line (conflictRead). Own line: return. Otherwise
//     doom the owner; if that fails because the owner is already dead,
//     return (its buffered stores were never visible); if it fails
//     because the owner is committing, deliver the requester's own
//     pending doom and poll until the word changes. Commit clears its
//     words only after the whole write-back and PostCommit, so a load
//     of any written line never sees a torn prefix, and a conflicting
//     later transaction cannot reach its PreCommit before the earlier
//     one's PostCommit (see hook.go).
//  4. Writers and tracked readers see each other without a common lock,
//     Dekker-style on sync/atomic's sequential consistency: trackRead
//     registers in the reader table and then loads the ownership word;
//     claimWrite CASes the word and then loads shard.readers, locking
//     the shard to doom the line's readers only if it is non-zero;
//     conflictStore goes writer-then-readers the same way. Whichever
//     side comes second sees the first.
//  5. Release. Commit stores 0 into each word it owns (a committing
//     transaction cannot be doomed, so none was stolen); cleanup CASes
//     its own word back to 0 and leaves a stolen one alone. Both drop
//     the reader registration of every line in the read set.

// ownerTx returns the transaction slot an ownership word names.
func (m *Machine) ownerTx(word uint32) *Tx {
	return &m.threads[word&m.idMask-1].tx
}

// lineEntry records the tracked readers of one cache line.
type lineEntry struct {
	readers []*Tx
}

// shard is one partition of the tracked-reader table.
type shard struct {
	readers atomic.Int64 // total reader registrations in this shard
	mu      sync.Mutex
	lines   map[memsim.Line]*lineEntry
	free    []*lineEntry // entry pool, guarded by mu
	_       [64]byte
}

// shardOf maps a line to its shard with a Fibonacci hash.
func (m *Machine) shardOf(line memsim.Line) *shard {
	return &m.shards[uint64(line)*0x9e3779b97f4a7c15>>dirShardShift]
}

// addReader registers tx as a tracked reader of line.
func (s *shard) addReader(line memsim.Line, tx *Tx) {
	s.mu.Lock()
	e, ok := s.lines[line]
	if !ok {
		if n := len(s.free); n > 0 {
			e = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			e = &lineEntry{}
		}
		s.lines[line] = e
	}
	e.readers = append(e.readers, tx)
	s.readers.Add(1)
	s.mu.Unlock()
}

// removeReader unregisters tx from line, recycling the entry once it
// tracks no one.
func (s *shard) removeReader(line memsim.Line, tx *Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lines[line]
	if !ok {
		return
	}
	for i, r := range e.readers {
		if r == tx {
			last := len(e.readers) - 1
			e.readers[i] = e.readers[last]
			e.readers[last] = nil
			e.readers = e.readers[:last]
			s.readers.Add(-1)
			break
		}
	}
	if len(e.readers) == 0 {
		delete(s.lines, line)
		s.free = append(s.free, e)
	}
}

// doomReaders kills every tracked reader of line but except — the
// invalidation a store's exclusive-ownership request broadcasts. The
// lock-free count keeps the untracked common case off the mutex.
func (m *Machine) doomReaders(line memsim.Line, except *Tx, code AbortCode) {
	s := m.shardOf(line)
	if s.readers.Load() == 0 {
		return
	}
	s.mu.Lock()
	if e, ok := s.lines[line]; ok {
		for _, r := range e.readers {
			if r != except {
				r.doom(code)
			}
		}
	}
	s.mu.Unlock()
}

// conflictRead performs the coherence action of a load of line by
// requester (nil for a plain, non-transactional load): any live
// transactional writer of the line is doomed — "the last transaction to
// read onto some shared variable will kill the execution of any other
// previous writer transaction on that same variable" (§2.2). If the
// writer is already committing it can no longer be doomed; the load must
// wait for the commit to drain, like a load stalled behind the committing
// store queue.
func (m *Machine) conflictRead(line memsim.Line, requester *Tx) {
	w := &m.owner[line]
	for {
		word := w.Load()
		if word == 0 {
			return
		}
		o := m.ownerTx(word)
		if o == requester || o.doom(conflictCodeFor(requester)) || !o.isLive() {
			// Ours, killed just now, or dead already: a dead owner's
			// buffered stores were never visible, so the line reads as
			// free while its word waits to be cleaned up or stolen.
			return
		}
		// Writer is committing: wait for write-back to finish so the load
		// observes the post-commit value, never a torn prefix.
		if requester != nil {
			requester.checkDoomed()
		}
		runtime.Gosched()
	}
}

// conflictCodeFor is the abort cause a victim records when killed by this
// requester: transactions kill with transactional conflicts, plain
// accesses with non-transactional conflicts.
func conflictCodeFor(requester *Tx) AbortCode {
	if requester != nil {
		return CodeTxConflict
	}
	return CodeNonTxConflict
}
