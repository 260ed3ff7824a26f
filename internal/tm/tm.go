// Package tm defines the interface every concurrency-control system in
// this repository implements — SI-HTM and all the baselines the paper
// compares against (plain HTM, P8TM, Silo, and a single-global-lock
// reference). Workloads are written once against tm.System/tm.Ops and run
// unchanged on every system, exactly like the paper's benchmarks run on
// interchangeable back-ends.
package tm

import (
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/stats"
)

// Kind declares a transaction's profile at launch. The paper's §3.3: "When
// a transaction is launched in SI-HTM, an argument specifies whether the
// transaction is read-only or not. We assume this parameter is set by the
// programmer or by some automatic tool."
type Kind int

const (
	// KindUpdate is a transaction that may write shared data.
	KindUpdate Kind = iota
	// KindReadOnly promises the transaction performs no shared writes
	// (thread-private writes — e.g. its own stack — are fine and are
	// simply not routed through Ops).
	KindReadOnly
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindReadOnly {
		return "read-only"
	}
	return "update"
}

// Ops is the transactional memory access interface handed to transaction
// bodies. Addresses index the shared simulated heap.
type Ops interface {
	// Read returns the word at a as observed by this transaction.
	Read(a memsim.Addr) uint64
	// Write updates the word at a within this transaction. Calling Write
	// in a KindReadOnly transaction is a programming error; systems with
	// a read-only fast path panic on it.
	Write(a memsim.Addr, v uint64)
}

// System is a complete concurrency control. Atomic executes body as one
// transaction, retrying and falling back internally as the system's
// protocol dictates; when Atomic returns, the transaction has committed.
//
// The body may be executed multiple times (on aborts) and must therefore
// be idempotent with respect to non-transactional side effects — the
// standard TM contract.
type System interface {
	// Name identifies the system in benchmark output ("si-htm", "htm",
	// "p8tm", "silo", "sgl").
	Name() string
	// Threads is the number of worker threads the system was sized for.
	Threads() int
	// Atomic runs body as one transaction on the given thread.
	// Implementations guarantee the call returns only after a successful
	// commit.
	Atomic(thread int, kind Kind, body func(Ops))
	// Collector exposes the per-thread statistics (commits, aborts by
	// kind, fall-backs) that the paper's figures report.
	Collector() *stats.Collector
}

// A hardware transaction is its own Ops: a body reaches Tx.Read and
// Tx.Write through one interface call.
var _ Ops = (*htm.Tx)(nil)

// PlainOps adapts a hardware thread's plain (non-transactional) accesses
// to Ops. It is the access path of the SGL fall-backs. The read-only
// fast path uses htm.Thread.ReadOnly instead, whose loads are the same
// but whose writes panic, enforcing the KindReadOnly promise.
type PlainOps struct{ Th *htm.Thread }

// Read implements Ops.
func (o PlainOps) Read(a memsim.Addr) uint64 { return o.Th.Load(a) }

// Write implements Ops.
func (o PlainOps) Write(a memsim.Addr, v uint64) { o.Th.Store(a, v) }

// The read-only fast path's Ops, htm.Thread.ReadOnly, lives in htm so
// that its loads reach the heap with no call.
var _ Ops = htm.ReadOnlyOps{}

// AbortKindOf maps a hardware abort cause to the paper's abort taxonomy:
// explicit aborts are raised by the lock-subscription check when the SGL
// is busy, so they count as non-transactional, like the SGL kills
// themselves.
func AbortKindOf(code htm.AbortCode) stats.AbortKind {
	switch code {
	case htm.CodeTxConflict:
		return stats.AbortTransactional
	case htm.CodeNonTxConflict:
		return stats.AbortNonTransactional
	case htm.CodeCapacity:
		return stats.AbortCapacity
	case htm.CodeExplicit:
		return stats.AbortNonTransactional
	default:
		return stats.AbortOther
	}
}
