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
	m := t.m
	m.snoop(memsim.LineOf(a), nil)
	return m.heap.Load(a)
}

// ReadOnly returns the access path of a read-only transaction's body on
// this thread: plain loads, and a panic on any write. It checks once
// that no transaction is live here, so each load need not.
func (t *Thread) ReadOnly() ReadOnlyOps {
	t.assertPlainContext()
	return ReadOnlyOps{t.m}
}

// ReadOnlyOps is the tm.Ops of SI-HTM's uninstrumented read-only path
// (Thread.ReadOnly). It is one pointer, a direct interface type, so
// handing it to a body as tm.Ops allocates nothing. Its Read is
// Thread.Load's load in its own frame: reached by one interface call,
// it makes no other unless the line is owned.
type ReadOnlyOps struct{ m *Machine }

// Read implements tm.Ops: a plain load.
func (o ReadOnlyOps) Read(a memsim.Addr) uint64 {
	o.m.snoop(memsim.LineOf(a), nil)
	return o.m.heap.Load(a)
}

// Write implements tm.Ops by panicking: a write would silently break
// the promise a read-only transaction was launched with.
func (ReadOnlyOps) Write(memsim.Addr, uint64) {
	panic("htm: Write inside a transaction declared read-only")
}

// Store performs a plain store. It dooms any live transactional writer of
// the line and any transaction tracking the line in its read set (e.g.
// SGL subscribers), in directory rule 4's order: doom the writer,
// publish, doom the readers.
func (t *Thread) Store(a memsim.Addr, v uint64) {
	t.assertPlainContext()
	m := t.m
	line := memsim.LineOf(a)
	m.snoop(line, nil)
	m.heap.Store(a, v)
	if m.mayTrack() {
		m.doomPlainReaders(line)
	}
}

// CompareAndSwap performs a plain atomic compare-and-swap on the word at
// a, with store conflict semantics (victims are doomed whether or not the
// swap succeeds, as the exclusive-ownership request alone invalidates).
func (t *Thread) CompareAndSwap(a memsim.Addr, old, new uint64) bool {
	t.assertPlainContext()
	m := t.m
	line := memsim.LineOf(a)
	m.snoop(line, nil)
	ok := m.heap.CompareAndSwap(a, old, new)
	if m.mayTrack() {
		m.doomPlainReaders(line)
	}
	return ok
}

// mayTrack is the reader test of a plain store or CAS that has
// published its value, inlined into each (rule 4): a machine without a
// reader table has no tracked reader to doom, so only one that has a
// table, or the test hook, calls doomPlainReaders.
func (m *Machine) mayTrack() bool {
	return m.readers.Load() != nil || m.plainPublished != nil
}

// doomPlainReaders dooms the tracked readers of line for a plain store or
// CAS that has published its value (directory rule 4).
func (m *Machine) doomPlainReaders(line memsim.Line) {
	if m.plainPublished != nil {
		m.plainPublished()
	}
	m.doomReaders(line, nil, CodeNonTxConflict)
}
