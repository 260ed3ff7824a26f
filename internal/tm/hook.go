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
// the machine and bracket their own publication, the serial path
// through a Recorder. The interface is defined in internal/htm (the
// machine cannot import this package); this alias is the name the
// system-facing layers use.
type CommitHook = htm.CommitHook

// HookableSystem is a system with a commit-hook seat of its own. No
// system has one: the machine is the hook's only seat. The interface
// stays declared only because the benchmark's program seam
// (bench/seam.go) names it.
type HookableSystem interface {
	System
	SetCommitHook(CommitHook)
}

// Recorder turns an immediate-visibility publication path (plain stores
// under a global lock) into the capture-then-publish shape the commit
// hook requires: the transaction body runs against the Recorder, which
// buffers writes (serving reads-own-writes) instead of issuing them;
// Flush then captures the write set via PreCommit, publishes it through
// the inner Ops and closes with PostCommit. Deferring the stores to
// Flush is safe on the paths that use it — they hold the SGL (or Silo's
// line locks), so no concurrent reader can observe the body's
// intermediate states anyway — and it is what makes the redo record's
// sequence number agree with the publication order.
//
// The write buffer is pooled and retained across transactions, so a
// steady-state fall-back commit allocates nothing. A Recorder belongs
// to one thread; systems keep one per worker slot.
type Recorder struct {
	inner Ops
	buf   footprint.WriteBuffer
}

// Begin arms the recorder over the real publication path for one
// transaction. Fall-back bodies are never re-executed (the serial path
// cannot abort), so Begin is called once per fall-back transaction.
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

// Flush publishes the buffered write set through the hook bracket:
// PreCommit (capture), inner writes (publish), PostCommit. A read-only
// body (empty buffer) publishes nothing and is not reported to the
// hook.
func (r *Recorder) Flush(thread int, h CommitHook) {
	if r.buf.Len() == 0 {
		return
	}
	h.PreCommit(thread, r.buf.Entries())
	for _, e := range r.buf.Entries() {
		r.inner.Write(e.Addr, e.Val)
	}
	h.PostCommit(thread)
	r.buf.Reset()
}
