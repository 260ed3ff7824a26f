package tm

import (
	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
)

// CommitHook is the durability seam: one interface observes the write
// set of every committed update transaction, whichever path committed
// it. It is installed once, on the machine (htm.Machine.SetCommitHook).
// Hardware commits reach it inside the machine's write-back bracket
// (see htm.CommitHook); the software publication paths,
// Fallback.RunSerial (the SGL fall-backs of SI-HTM, HTM and P8TM and
// the all-serial SGL system) and Silo's OCC install, read it back from
// the machine and publish through Recorder.Flush. The interface is
// defined in internal/htm (the machine cannot import this package); this
// alias is the name the system-facing layers use.
type CommitHook = htm.CommitHook

// HookableSystem is a system with a commit-hook seat of its own. No
// system has one: the machine is the hook's only seat. The interface
// stays declared only because the benchmark's program seam
// (bench/seam.go) names it.
type HookableSystem interface {
	System
	SetCommitHook(CommitHook)
}

// Recorder is the one software write set and the one software
// publication bracket: a body runs against the Recorder, which buffers
// its writes in a footprint.WriteBuffer (serving reads-own-writes, last
// write wins) instead of issuing them; Flush then captures the write set
// via PreCommit, publishes it through the inner Ops and closes with
// PostCommit. The serial fall-back (Fallback.RunSerial) runs its body on
// one over plain stores, and Silo runs every attempt on one whose inner
// Ops is its OCC read and heap install. Deferring the stores to Flush is
// safe on both paths — they hold the SGL or Silo's line locks, so no
// concurrent reader can observe the body's intermediate states anyway —
// and it is what makes the redo record's sequence number agree with the
// publication order.
//
// The write buffer is retained across transactions, so a steady-state
// commit allocates nothing. A Recorder belongs to one thread; systems
// keep one per worker slot.
type Recorder struct {
	inner Ops
	buf   footprint.WriteBuffer
}

// Begin arms the recorder over the real publication path for one
// attempt, emptying the write set.
func (r *Recorder) Begin(inner Ops) {
	r.inner = inner
	r.buf.Reset()
}

// Read implements Ops: reads-own-writes from the buffer, everything
// else through the inner path.
func (r *Recorder) Read(a memsim.Addr) uint64 {
	if v, ok := r.buf.Get(a); ok {
		return v
	}
	return r.inner.Read(a)
}

// Write implements Ops by buffering the store until Flush.
func (r *Recorder) Write(a memsim.Addr, v uint64) { r.buf.Put(a, v) }

// Entries returns the buffered write set, one entry per distinct word in
// first-write order (footprint.WriteBuffer.Entries); it is valid until
// the next Write, Begin or Flush.
func (r *Recorder) Entries() []footprint.Entry { return r.buf.Entries() }

// Flush publishes the buffered write set through the inner writes,
// bracketed by the hook's PreCommit (capture) and PostCommit when h is
// not nil. A read-only body (empty buffer) publishes nothing and is not
// reported to the hook.
func (r *Recorder) Flush(thread int, h CommitHook) {
	if r.buf.Len() == 0 {
		return
	}
	if h != nil {
		h.PreCommit(thread, r.buf.Entries())
	}
	for _, e := range r.buf.Entries() {
		r.inner.Write(e.Addr, e.Val)
	}
	if h != nil {
		h.PostCommit(thread)
	}
	r.buf.Reset()
}
