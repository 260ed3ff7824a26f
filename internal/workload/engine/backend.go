package engine

import (
	"sihtm/internal/memsim"
	"sihtm/internal/tm"
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

// AsyncSession is an optional Session capability for operations whose
// results the caller discards: instead of executing eagerly, the
// session may defer them and ship the whole set as one unit when
// Commit is called. The driver prefers this interface when a session
// offers it, which is what turns a planned transaction into exactly one
// wire TXN on the remote backend (local backends have no reason to
// implement it — their eager ops are already free). ReadModifyWriteAsync
// exists because the dependent write (read value + delta) must be
// computed wherever the read executes; a remote session encodes it as a
// single server-side RMW op.
type AsyncSession interface {
	Session
	// ReadAsync is Read with the result discarded.
	ReadAsync(key uint64)
	// ReadModifyWriteAsync upserts key ← read(key)+delta (read = 0 when
	// absent), the engine's OpReadModifyWrite semantics.
	ReadModifyWriteAsync(key, delta uint64)
	// InsertAsync is Insert with the result discarded.
	InsertAsync(key, value uint64)
	// DeleteAsync is Delete with the result discarded.
	DeleteAsync(key uint64)
	// ScanAsync is Scan with the result discarded.
	ScanAsync(key uint64, n int)
}

// DirectOps adapts raw heap accesses to tm.Ops: the quiescent access
// path of Populate and of verification walks.
type DirectOps struct{ Heap *memsim.Heap }

// Read implements tm.Ops.
func (o DirectOps) Read(a memsim.Addr) uint64 { return o.Heap.Load(a) }

// Write implements tm.Ops.
func (o DirectOps) Write(a memsim.Addr, v uint64) { o.Heap.Store(a, v) }
