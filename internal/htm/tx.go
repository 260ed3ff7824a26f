package htm

import (
	"sync/atomic"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

// Mode selects the transaction flavour offered by P8-HTM.
type Mode int

const (
	// ModeHTM is a regular transaction: reads and writes are tracked and
	// both consume TMCAM capacity.
	ModeHTM Mode = iota
	// ModeROT is a rollback-only transaction: only writes are tracked;
	// reads behave like plain loads (§2.2).
	ModeROT
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeROT {
		return "ROT"
	}
	return "HTM"
}

// Transaction status encoding. Doomed states carry the abort code.
const (
	statusIdle int32 = iota
	statusActive
	statusCommitting
	statusCommitted
	statusAborted
	statusDoomedBase int32 = 0x100
)

func doomedStatus(code AbortCode) int32 { return statusDoomedBase + int32(code) }
func isDoomedStatus(s int32) bool       { return s >= statusDoomedBase }
func codeOfStatus(s int32) AbortCode    { return AbortCode(s - statusDoomedBase) }

// Tx is one hardware transaction. A Tx is obtained from Thread.Begin and
// driven by the owning goroutine; conflicting peers may asynchronously
// doom it, and the doom is delivered — as a panic carrying *Abort — at
// the transaction's next operation, mirroring asynchronous hardware
// abort delivery.
//
// The directory is the transaction's footprint (directory.go). Tx keeps
// only what the directory cannot give back — the store buffer, and lists
// of the lines it took, to release and count them — recycled across the
// thread's transactions, so a transaction, committed or aborted,
// amortizes to zero heap allocations.
type Tx struct {
	th        *Thread
	mode      Mode
	status    atomic.Int32
	suspended bool

	// word is the ownership word this transaction claims lines with:
	// the thread's id+1 below, a count of its Begins above (directory.go).
	word uint32

	writes     footprint.WriteBuffer // buffered stores, invisible until commit
	writeLines []memsim.Line         // lines claimWrite took, in order
	readLines  []memsim.Line         // lines trackRead took, in order
	charged    int64                 // TMCAM lines charged on the core
}

// maxRetainedLines caps the line-list capacity kept across transactions,
// above the bench suite's largest footprint (4096 lines) plus append's
// overshoot, so one giant transaction does not pin memory forever.
const maxRetainedLines = 8192

// Mode returns the transaction's flavour.
func (tx *Tx) Mode() Mode { return tx.mode }

// Thread returns the hardware thread running the transaction.
func (tx *Tx) Thread() *Thread { return tx.th }

// Suspended reports whether the transaction is currently suspended.
func (tx *Tx) Suspended() bool { return tx.suspended }

// Doomed reports (without delivering) whether the transaction has been
// killed by a conflicting access. Spin loops — such as SI-HTM's safety
// wait — poll this to abandon a wait that can no longer succeed.
func (tx *Tx) Doomed() bool { return isDoomedStatus(tx.status.Load()) }

// Poll delivers a pending doom, unwinding with *Abort if the transaction
// has been killed. Software layers call it inside wait loops so a doomed
// transaction stops spinning promptly, mirroring the asynchronous abort
// delivery of the hardware.
func (tx *Tx) Poll() { tx.checkDoomed() }

// Kill requests the abort of this transaction from another thread, as the
// paper's §6 "killing alternative" envisions (a completed transaction
// killing laggards that delay its quiescence). It reports whether the
// kill landed; it fails if the transaction is already dead or committing.
// The victim observes the abort at its next transactional operation.
func (tx *Tx) Kill() bool { return tx.doom(CodeExplicit) }

// WriteSetLines returns the number of distinct cache lines written.
func (tx *Tx) WriteSetLines() int { return len(tx.writeLines) }

// ReadSetLines returns the number of distinct cache lines tracked as read.
func (tx *Tx) ReadSetLines() int { return len(tx.readLines) }

// inWriteSet reports whether line is in the transaction's write set: its
// ownership word is this transaction's.
func (tx *Tx) inWriteSet(line memsim.Line) bool {
	return tx.th.m.owner[line].Load() == tx.word
}

// inReadSet reports whether the transaction tracks line in its read set:
// its thread's bit is set in the line's reader word. A machine without a
// reader table has tracked no read, and the test allocates none.
func (tx *Tx) inReadSet(line memsim.Line) bool {
	m := tx.th.m
	p := m.readers.Load()
	if p == nil {
		return false
	}
	w, bit := m.readerBit(line, tx.th.id)
	return (*p)[w].Load()&bit != 0
}

func (tx *Tx) isLive() bool {
	s := tx.status.Load()
	return s == statusActive || s == statusCommitting
}

// doom attempts to kill the transaction with the given cause, reporting
// whether this call performed the kill. It fails if the transaction is
// already dead or has entered its commit (hardware commit is atomic and
// cannot be interrupted).
func (tx *Tx) doom(code AbortCode) bool {
	return tx.status.CompareAndSwap(statusActive, doomedStatus(code))
}

// checkDoomed delivers a pending doom, unwinding with *Abort.
func (tx *Tx) checkDoomed() {
	if isDoomedStatus(tx.status.Load()) {
		tx.abortNow()
	}
}

// abort self-kills with the given cause and unwinds.
func (tx *Tx) abort(code AbortCode) {
	tx.status.CompareAndSwap(statusActive, doomedStatus(code))
	tx.abortNow()
}

// abortNow cleans up a doomed transaction and unwinds with the shared
// *Abort of its cause.
func (tx *Tx) abortNow() {
	st := tx.status.Load()
	code := CodeExplicit
	if isDoomedStatus(st) {
		code = codeOfStatus(st)
	}
	tx.cleanup()
	tx.status.Store(statusAborted)
	panic(aborts[code])
}

// forceAbortQuiet kills and cleans up a live transaction without
// unwinding. It is used when a non-abort panic (a caller bug) escapes a
// transaction body, so the machine is not left with a zombie entry.
func (tx *Tx) forceAbortQuiet() {
	if !tx.isLive() {
		return
	}
	tx.status.CompareAndSwap(statusActive, doomedStatus(CodeExplicit))
	if tx.status.Load() == statusCommitting {
		return // commit already in-flight; it will finish on its own
	}
	tx.cleanup()
	tx.status.Store(statusAborted)
}

// resetFootprint returns the pooled footprint state to empty. It runs on
// every transaction exit — commit (with or without writes) and abort —
// so no path leaves stale scratch behind, and retained capacity is
// bounded by the footprint package's caps.
func (tx *Tx) resetFootprint() {
	tx.writes.Reset()
	tx.writeLines = resetLines(tx.writeLines)
	tx.readLines = resetLines(tx.readLines)
}

// resetLines empties a line list, dropping it once it outgrew
// maxRetainedLines.
func resetLines(l []memsim.Line) []memsim.Line {
	if cap(l) > maxRetainedLines {
		return nil
	}
	return l[:0]
}

// cleanup withdraws the transaction from the directory, releases its
// TMCAM charge and discards buffered writes. Buffered stores were never
// visible, so rollback is purely local. A line stolen from this doomed
// transaction carries the stealer's word by now and is left alone.
func (tx *Tx) cleanup() {
	m := tx.th.m
	for _, line := range tx.writeLines {
		m.owner[line].CompareAndSwap(tx.word, 0)
	}
	tx.release()
}

// release is the common tail of commit and abort: clear the thread's
// reader bit on every line of the read set, return the TMCAM charge and
// empty the footprint.
func (tx *Tx) release() {
	m := tx.th.m
	if len(tx.readLines) > 0 {
		words := m.readerWords()
		for _, line := range tx.readLines {
			w, bit := m.readerBit(line, tx.th.id)
			words[w].And(^bit)
		}
	}
	m.uncharge(tx.th.core, tx.charged)
	tx.charged = 0
	tx.resetFootprint()
}

// Read performs a transactional load of the word at a.
//
// In ModeHTM the line is tracked in the read set (consuming TMCAM
// capacity); in ModeROT every load is untracked and capacity-free but,
// like any load, dooms a concurrent transactional writer of the line. While
// suspended, the load is executed non-transactionally. An untracked load
// of a line no transaction owns, nearly every ROT read, tests the
// ownership word and reads the heap here, with no call (directory rule 3).
// That one load of the word also answers whether the line is in the write
// set (it is this transaction's word).
func (tx *Tx) Read(a memsim.Addr) uint64 {
	tx.checkDoomed()
	m := tx.th.m
	line := memsim.LineOf(a)
	switch w := m.owner[line].Load(); {
	case tx.suspended:
		if w != 0 { // a plain load
			m.conflictRead(line, nil)
		}
	case w == tx.word:
		if v, ok := tx.writes.Get(a); ok {
			return v // reads-own-writes (restriction R3 in the paper)
		}
	case tx.mode == ModeHTM:
		if !tx.inReadSet(line) {
			tx.trackRead(line)
		}
		// A live transaction holding the line in its read set cannot
		// coexist with a live writer (either registration dooms the
		// other), so the heap value is committed data.
	case w != 0:
		m.conflictRead(line, tx)
	}
	return m.heap.Load(a)
}

// trackRead registers tx as a reader of line by setting its thread's
// bit in the line's reader word, dooms any live writer (last reader
// kills previous writer) and charges one TMCAM entry. The registration
// comes before the snoop so that a writer claiming the line meanwhile
// sees it (protocol rule 4); an abort from here on — a pending doom
// delivered while a committing writer drains, or capacity — withdraws it
// through cleanup.
func (tx *Tx) trackRead(line memsim.Line) {
	m := tx.th.m
	w, bit := m.readerBit(line, tx.th.id)
	m.readerWords()[w].Or(bit)
	tx.readLines = append(tx.readLines, line)
	if m.readRegistered != nil {
		m.readRegistered()
	}
	m.snoop(line, tx)
	if !m.charge(tx.th.core, 1) {
		tx.abort(CodeCapacity)
	}
	tx.charged++
}

// Write performs a transactional store of v to the word at a. The store
// is buffered and invisible to other threads until Commit. While
// suspended, the store is executed non-transactionally (and is then
// immediately visible).
func (tx *Tx) Write(a memsim.Addr, v uint64) {
	tx.checkDoomed()
	if tx.suspended {
		tx.th.Store(a, v)
		return
	}
	line := memsim.LineOf(a)
	if !tx.inWriteSet(line) {
		tx.claimWrite(line)
	}
	tx.writes.Put(a, v)
}

// claimWrite takes exclusive transactional ownership of line: it
// self-aborts if another live writer holds it ("the last writer is
// killed", §2.2), charges TMCAM capacity unless the line is already in
// this transaction's read set (a read→write upgrade reuses the entry),
// installs its ownership word — stealing the line of a doomed
// owner that has not cleaned up yet — and kills the line's tracked
// readers (invalidation). See directory.go for the protocol.
func (tx *Tx) claimWrite(line memsim.Line) {
	m := tx.th.m
	w := &m.owner[line]
	needCharge := !tx.inReadSet(line)
	for {
		old := w.Load()
		if old != 0 && m.ownerTx(old).isLive() {
			if w.Load() == old {
				tx.abort(CodeTxConflict)
			}
			continue // the owner we judged is gone; look again
		}
		if needCharge {
			if !m.charge(tx.th.core, 1) {
				tx.abort(CodeCapacity)
			}
			tx.charged++ // from here an abort's cleanup returns it
			needCharge = false
		}
		if w.CompareAndSwap(old, tx.word) {
			break
		}
	}
	tx.writeLines = append(tx.writeLines, line)
	m.doomReaders(line, tx, CodeTxConflict)
}

// Suspend pauses transactional tracking: until Resume, the transaction's
// own accesses execute non-transactionally. Conflicts that doom the
// transaction while suspended take effect at Resume (§2.2).
func (tx *Tx) Suspend() {
	if tx.suspended {
		panic("htm: Suspend on already-suspended transaction")
	}
	if s := tx.status.Load(); s != statusActive && !isDoomedStatus(s) {
		panic("htm: Suspend outside an active transaction")
	}
	tx.suspended = true
}

// Resume ends a suspension, delivering any doom that arrived meanwhile.
func (tx *Tx) Resume() {
	if !tx.suspended {
		panic("htm: Resume on non-suspended transaction")
	}
	tx.suspended = false
	tx.checkDoomed()
}

// AbortExplicit aborts the transaction programmatically (tabort.),
// unwinding with *Abort carrying CodeExplicit.
func (tx *Tx) AbortExplicit() {
	tx.checkDoomed()
	tx.abort(CodeExplicit)
}

// Commit atomically publishes the transaction's write set and ends the
// transaction (tend.). Once Commit begins, the transaction can no longer
// be doomed; the whole write set becomes visible before Commit returns,
// with no torn intermediate state observable by any simulated access.
func (tx *Tx) Commit() {
	if tx.suspended {
		panic("htm: Commit while suspended; Resume first")
	}
	m := tx.th.m
	// With a commit hook installed, advertise the in-flight commit on the
	// core-local counter before the point of no return, so QuiesceCommits
	// observes every commit that can still publish (see hook.go).
	hooked := m.hook != nil
	if hooked {
		m.cores[tx.th.core].committing.Add(1)
	}
	if !tx.status.CompareAndSwap(statusActive, statusCommitting) {
		if hooked {
			m.cores[tx.th.core].committing.Add(-1)
		}
		tx.abortNow()
	}
	if tx.writes.Len() > 0 {
		// A committing transaction cannot be doomed, so it owns every
		// line of its write set until it lets go below, and every access
		// to one of them waits for that (conflictRead, Thread.Store) or
		// self-aborts (claimWrite). The commit hook brackets the
		// write-back inside that section: a conflicting later transaction
		// cannot reach its own PreCommit until the words are cleared, so
		// sequence numbers drawn in PreCommit respect the hardware
		// serialization order.
		if h := m.hook; h != nil {
			h.PreCommit(tx.th.id, tx.writes.Entries())
		}
		for _, e := range tx.writes.Entries() {
			m.heap.Store(e.Addr, e.Val)
		}
		if h := m.hook; h != nil {
			h.PostCommit(tx.th.id)
		}
		for _, line := range tx.writeLines {
			m.owner[line].Store(0)
		}
	}
	tx.release()
	tx.status.Store(statusCommitted)
	if hooked {
		m.cores[tx.th.core].committing.Add(-1)
	}
}
