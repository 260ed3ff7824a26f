package htm

import (
	"math/bits"
	"runtime"
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
// side is the reader table, Machine.readers: per heap line,
// ⌈MaxThreads/64⌉ words with one bit per hardware thread, set while that
// thread's transaction tracks the line (HTM-mode reads, SGL
// subscription). It takes 8 bytes per line per 64 hardware threads (16
// on the paper's 80-thread topology) and is allocated by the machine's
// first tracked read: a machine that runs no HTM-mode transaction, as
// under si-htm, p8tm, silo or sgl, never holds one. Neither side takes a
// lock or touches a map, which is the paper's premise: conflicts are
// resolved per line in the fabric at no software cost.
//
// The directory is also every transaction's footprint, as the TMCAM's
// entries are on POWER8 (§2.2): a line is in a transaction's write set
// iff its ownership word is the transaction's word, and in its read set
// iff its thread's bit is set in the line's reader word (never, on a
// machine without a reader table). Tx keeps no membership structure of
// its own, only lists of the lines it took, to release and count them.
//
// The protocol:
//
//  1. Claim (claimWrite). Load the word. If it names a live transaction,
//     re-load, and if unchanged self-abort with CodeTxConflict ("the last
//     writer is killed"); conflict is checked before capacity. Charge the
//     TMCAM unless the claimant's reader bit is set (a read→write upgrade
//     reuses the read's entry). Then CompareAndSwap(old, mine). A
//     non-zero word whose owner is doomed but has not yet cleaned up is
//     stolen by that same CAS.
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
//     one), never a missed doom. A reader bit has the same window: a
//     writer that loads it just before the reader clears it (rule 5)
//     may doom that thread's next transaction, again spuriously. A
//     steal also takes the line out of the doomed owner's write set, so
//     until its doom is delivered the owner may treat the line as new:
//     re-claim it from a stealer that is dead too, or, reading it, snoop
//     the stealer and doom it, and read committed data rather than its
//     own buffered store. Those are spurious aborts of the same class,
//     never a missed doom, and no value escapes: the owner was doomed
//     before the steal, so its next operation aborts it.
//  3. Load of an owned line (conflictRead). Every load site — a plain
//     load, a read-only transaction's (ReadOnlyOps), a ROT or suspended
//     Tx.Read, an HTM read's first touch, the writer check of a plain
//     store or CAS — first tests the line's word in its own frame
//     (snoop, inlined; Tx.Read loads the word in its body, where the
//     same load is its write-set test) and goes on to the heap word
//     when it is 0, which is almost every load: no call, no shared
//     write. Only a non-zero
//     word takes conflictRead. Own line: return. Otherwise doom the
//     owner; if that fails because the owner is already dead, return
//     (its buffered stores were never visible); if it fails because the
//     owner is committing, deliver the requester's own pending doom and
//     poll until the word changes. Commit clears its words only after
//     the whole write-back and PostCommit, so a load of any written line
//     never sees a torn prefix, and a conflicting later transaction
//     cannot reach its PreCommit before the earlier one's PostCommit
//     (see hook.go).
//  4. Writers and tracked readers see each other without a common lock,
//     Dekker-style on sync/atomic's sequential consistency: trackRead
//     Ors its thread's bit into the line's reader word and then loads the
//     ownership word; every writer publishes and then loads the line's
//     reader words, dooming each set bit's transaction but its own.
//     claimWrite publishes by CASing the ownership word; a plain store or
//     CAS by writing the heap word, after dooming the line's live writer.
//     The plain side loads the table pointer in its own frame (mayTrack,
//     inlined), so on a machine that never tracked a read a store makes
//     no call after it publishes. Whichever side comes second sees the
//     first. A plain store that scanned before it published would let a
//     reader load the old value in between and commit on it: an HTM
//     transaction reading the SGL word as free. The table's lazy
//     allocation keeps the order: a writer that loads a nil pointer
//     precedes the first reader's store of it in the sequentially
//     consistent order, so that reader's Or and its loads of the
//     ownership and heap words come after the writer's CAS or heap store,
//     and the reader sees the writer.
//  5. Release. Commit stores 0 into each word it owns (a committing
//     transaction cannot be doomed, so none was stolen); cleanup CASes
//     its own word back to 0 and leaves a stolen one alone. Both clear
//     their thread's bit, And(^bit), in the reader word of every line in
//     the read set.

// snoop is the coherence action of a load of line by requester (nil for
// a plain access), inlined into each load site (rule 3): a zero ownership
// word means no writer to doom or wait for, so only a non-zero one calls
// conflictRead, which loads the word again.
func (m *Machine) snoop(line memsim.Line, requester *Tx) {
	if m.owner[line].Load() != 0 {
		m.conflictRead(line, requester)
	}
}

// ownerTx returns the transaction slot an ownership word names.
func (m *Machine) ownerTx(word uint32) *Tx {
	return &m.threads[word&m.idMask-1].tx
}

// readerWords returns the reader table, allocating it on the machine's
// first tracked read. Every later call is one load.
func (m *Machine) readerWords() []atomic.Uint64 {
	if p := m.readers.Load(); p != nil {
		return *p
	}
	m.readersOnce.Do(func() {
		w := make([]atomic.Uint64, len(m.owner)*m.readerStride)
		m.readers.Store(&w)
	})
	return *m.readers.Load()
}

// readerBit locates hardware thread id's bit among the reader words of
// line: the word's index in the table and the bit within it.
func (m *Machine) readerBit(line memsim.Line, id int) (int, uint64) {
	return int(line)*m.readerStride + id>>6, 1 << (id & 63)
}

// doomReaders kills every tracked reader of line but except — the
// invalidation a store's exclusive-ownership request broadcasts. A
// machine that never tracked a read has no table and nothing to doom.
func (m *Machine) doomReaders(line memsim.Line, except *Tx, code AbortCode) {
	p := m.readers.Load()
	if p == nil {
		return
	}
	words := (*p)[int(line)*m.readerStride:][:m.readerStride]
	for w := range words {
		for set := words[w].Load(); set != 0; set &= set - 1 {
			if r := &m.threads[w<<6+bits.TrailingZeros64(set)].tx; r != except {
				r.doom(code)
			}
		}
	}
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
