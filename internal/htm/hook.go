package htm

import "sihtm/internal/footprint"

// CommitHook intercepts the publication of every committed transaction
// that has a non-empty write set — the seam the durability subsystem
// (internal/durable) plugs into so that any TM backend built on this
// machine becomes persistent without knowing about log files.
//
// The machine brackets the write-back of a committing transaction with
// the two calls:
//
//	hook.PreCommit(thread, entries) // capture the redo record
//	<write set becomes visible in the heap>
//	hook.PostCommit(thread)         // publication finished
//
// Both calls happen inside the transaction's commit critical section:
// from the moment it turned committing until it clears the ownership
// words of its write set — after PostCommit — no other transaction can
// claim one of those lines (it self-aborts) and no access can read or
// overwrite one (it waits; see directory.go). That gives the hook the
// ordering guarantee redo logging needs: if two transactions conflict,
// the later one cannot enter PreCommit before the earlier one's commit
// section — including its PostCommit — has completed. A sequence number
// drawn inside PreCommit therefore orders
// conflicting transactions exactly as the hardware serialized them;
// non-conflicting transactions may interleave freely, and any replay
// order among them is equivalent.
//
// entries aliases the transaction's pooled write buffer: it is valid
// only for the duration of the PreCommit call and must be copied out
// (or encoded) before returning. Implementations must not allocate on
// the steady-state path — the machine's zero-allocation commit pin
// covers the hooked path too — and must not issue transactional or
// plain heap accesses: one that touched a line of the committing write
// set would wait for the very commit it is running inside.
//
// Software systems with non-hardware publication paths (the SGL
// fall-back of SI-HTM/HTM/P8TM, the all-serial SGL system, Silo's OCC
// install) route those paths through the same interface — see
// tm.Recorder and each system's SetCommitHook.
type CommitHook interface {
	// PreCommit captures the write set of the committing transaction on
	// the given hardware thread. Called before any of the writes are
	// visible in the heap.
	PreCommit(thread int, entries []footprint.Entry)
	// PostCommit marks the end of the publication: every write passed
	// to the preceding PreCommit on this thread is now visible.
	PostCommit(thread int)
}

// SetCommitHook installs the machine-wide commit hook. It must be
// called while the machine is quiescent (no live transactions) — in
// practice, before workers start; the field is read without
// synchronization on the commit hot path. A nil hook (the default)
// disables interception.
func (m *Machine) SetCommitHook(h CommitHook) { m.hook = h }

// CommitHookInstalled reports whether a commit hook is set (tests and
// introspection).
func (m *Machine) CommitHookInstalled() bool { return m.hook != nil }
