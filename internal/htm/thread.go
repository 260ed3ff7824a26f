package htm

import "sihtm/internal/memsim"

// Thread is a simulated hardware thread, bound to a core by the machine
// topology. It issues plain (non-transactional) accesses and begins
// transactions. A Thread must be driven by one goroutine at a time.
type Thread struct {
	m    *Machine
	id   int
	core int
	tx   Tx
	_    [64]byte
}

// ID returns the hardware thread id.
func (t *Thread) ID() int { return t.id }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Begin starts a transaction of the given mode on this thread and returns
// its handle. Transactions do not nest (P8-HTM flattens nesting; this
// simulator forbids it outright to surface bugs).
func (t *Thread) Begin(mode Mode) *Tx {
	if t.tx.isLive() {
		panic("htm: Begin inside a live transaction")
	}
	tx := &t.tx
	tx.th = t
	tx.mode = mode
	tx.suspended = false
	tx.resetFootprint()
	tx.charged = 0
	tx.word += t.m.idMask + 1 // next incarnation, same thread field
	tx.status.Store(statusActive)
	return tx
}

// InTx reports whether the thread has a live transaction.
func (t *Thread) InTx() bool { return t.tx.isLive() }

// assertPlainContext panics if called with a live, unsuspended
// transaction: such accesses would be transactional on real hardware, so
// issuing them through the plain API is a bug in the caller.
func (t *Thread) assertPlainContext() {
	if t.tx.isLive() && !t.tx.suspended {
		panic("htm: plain access inside an unsuspended transaction")
	}
}

// Load performs a plain load. Like any load, it invalidates (dooms) a
// concurrent transactional writer of the line — this is the hardware
// lever behind both the SGL fall-back and SI-HTM's safety wait.
func (t *Thread) Load(a memsim.Addr) uint64 {
	t.assertPlainContext()
	return t.m.plainLoad(a)
}

// Store performs a plain store. It dooms any live transactional writer of
// the line and any transaction tracking the line in its read set (e.g.
// SGL subscribers).
func (t *Thread) Store(a memsim.Addr, v uint64) {
	t.assertPlainContext()
	t.m.plainStore(a, v)
}

// CompareAndSwap performs a plain atomic compare-and-swap on the word at
// a, with store conflict semantics (victims are doomed whether or not the
// swap succeeds, as the exclusive-ownership request alone invalidates).
func (t *Thread) CompareAndSwap(a memsim.Addr, old, new uint64) bool {
	t.assertPlainContext()
	t.m.conflictStore(memsim.LineOf(a))
	return t.m.heap.CompareAndSwap(a, old, new)
}

// plainLoad is a non-transactional load with conflict side effects.
func (m *Machine) plainLoad(a memsim.Addr) uint64 {
	m.conflictRead(memsim.LineOf(a), nil)
	return m.heap.Load(a)
}

// plainStore is a non-transactional store with conflict side effects.
func (m *Machine) plainStore(a memsim.Addr, v uint64) {
	m.conflictStore(memsim.LineOf(a))
	m.heap.Store(a, v)
}

// conflictStore performs the coherence action of a plain store: dooming
// the line's live writer and every transaction tracking the line as read.
// If the writer is mid-commit, the store waits for the write-back to
// drain (it would lose the exclusive-ownership race on real hardware).
func (m *Machine) conflictStore(line memsim.Line) {
	m.conflictRead(line, nil)
	m.doomReaders(line, nil, CodeNonTxConflict)
}
