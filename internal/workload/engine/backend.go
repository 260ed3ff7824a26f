package engine

import (
	"sihtm/internal/memsim"
	"sihtm/internal/tm"
	"sihtm/internal/wire"
)

// Backend is a transactional key-value substrate the engine can drive:
// an adapter giving a data structure the uniform read / upsert / delete
// / scan vocabulary of the op mix. Backends are shared across threads;
// all per-thread state (node pools, recycling lists) lives in Sessions.
type Backend interface {
	// Name tags the backend in registry params ("hashmap", "btree").
	Name() string
	// NewSession creates one thread's access handle.
	NewSession() Session
	// Direct returns a tm.Ops over raw heap accesses for quiescent
	// setup (Populate) and verification.
	Direct() tm.Ops
	// Check verifies the backend's structural invariants quiescently
	// (harness post-run check).
	Check() error
}

// Loader is an optional Backend capability for quiescent bulk loading:
// Load fills an empty backend with keys 0..keys-1, each holding
// InitialValue(key), in one pass that knows the whole key set. The
// structure must be the one Populate's session inserts would build; the
// image may differ from theirs only in where nodes are placed. Populate
// prefers it.
type Loader interface {
	Load(keys int)
}

// Session is one thread's view of a Backend. The driver's protocol per
// transaction:
//
//	Prepare(inserts)  outside the transaction — top up node pools for
//	                  at most `inserts` key-creating ops
//	Reset()           at the top of the transaction body; aborted
//	                  attempts re-enter here, so it must rewind any
//	                  state the previous attempt consumed
//	Read/Insert/...   inside the body, in planned order
//	Commit()          after the transaction committed — permanently
//	                  consume used pool nodes and recycle deleted ones
//
// The memo rule: an Insert that directly follows a Read of the same key
// through the same tm.Ops may reuse what that Read found, so a
// read-modify-write walks the structure once (the hash map does; the
// B+tree walks twice). Any other call in between, Reset and Commit
// included, drops the memo, so it never outlives an attempt. The reuse
// is sound because the attempt's own reads keep the path valid: the
// ROT's safety wait (SI-HTM), tracked reads (HTM), commit-time
// validation (Silo, P8TM), or a serial fall-back. A tm.Ops passed to a
// session must therefore be comparable with ==.
type Session interface {
	Prepare(inserts int)
	Reset()
	// Read returns the value under key.
	Read(ops tm.Ops, key uint64) (uint64, bool)
	// Insert upserts key, reporting whether it was new.
	Insert(ops tm.Ops, key, value uint64) bool
	// Delete removes key, reporting whether it was present.
	Delete(ops tm.Ops, key uint64) bool
	// Scan visits up to n entries from key onward, returning how many
	// it saw. On unordered backends this degenerates to n point reads
	// of consecutive keys.
	Scan(ops tm.Ops, key uint64, n int) int
	Commit()
}

// Deferrer is an optional Session capability for operations whose
// results the caller discards: instead of executing eagerly, the session
// queues each op and ships the whole set as one unit at Commit. The
// driver prefers it when a session offers it, which is what turns a
// planned transaction into exactly one wire TXN on the remote backends
// (local backends have no reason to implement it — their eager ops are
// already free). A deferred op means what Exec makes of it wherever the
// unit executes; OpRMW is why the unit carries ops rather than values —
// its dependent write must be computed where the read runs.
type Deferrer interface {
	Defer(op wire.Op)
}

// Exec executes one data-plane op against a session inside a
// transaction body and returns the op's result (the wire.OpKind
// constants document each): the one statement of what GET, PUT, DEL,
// SCAN and RMW do. The server runs every admitted op through it, and
// the driver every planned op of a session that does not defer.
func Exec(s Session, ops tm.Ops, op wire.Op) wire.Result {
	switch op.Kind {
	case wire.OpGet:
		v, ok := s.Read(ops, op.Key)
		return wire.Result{OK: ok, Val: v}
	case wire.OpPut:
		return wire.Result{OK: s.Insert(ops, op.Key, op.Arg), Val: op.Arg}
	case wire.OpDel:
		return wire.Result{OK: s.Delete(ops, op.Key)}
	case wire.OpScan:
		return wire.Result{OK: true, Val: uint64(s.Scan(ops, op.Key, int(op.Arg)))}
	case wire.OpRMW:
		v, _ := s.Read(ops, op.Key)
		s.Insert(ops, op.Key, v+op.Arg)
		return wire.Result{OK: true, Val: v + op.Arg}
	}
	return wire.Result{}
}

// DirectOps adapts raw heap accesses to tm.Ops: the quiescent access
// path of Populate and of verification walks.
type DirectOps struct{ Heap *memsim.Heap }

// Read implements tm.Ops.
func (o DirectOps) Read(a memsim.Addr) uint64 { return o.Heap.Load(a) }

// Write implements tm.Ops.
func (o DirectOps) Write(a memsim.Addr, v uint64) { o.Heap.Store(a, v) }
