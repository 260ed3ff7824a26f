// Package sihtm is a Go reproduction of "Stretching the capacity of
// Hardware Transactional Memory in IBM POWER architectures" (Filipe,
// Issa, Romano, Barreto — PPoPP 2019).
//
// It provides SI-HTM — a single-version implementation of Snapshot
// Isolation built from POWER8-style rollback-only hardware transactions
// plus a software quiescence phase — together with every system the paper
// depends on or compares against: a faithful simulator of the POWER8 HTM
// (TMCAM capacity shared across SMT threads, rollback-only transactions,
// suspend/resume, cache-line conflict detection), the plain-HTM baseline
// with a single-global-lock fall-back, the P8TM and Silo baselines, and
// the paper's hash-map and TPC-C workloads.
//
// # Quick start
//
//	rt := sihtm.New(sihtm.Config{HeapLines: 1 << 16})
//	x := rt.Heap().AllocLine()
//	sys := rt.NewSIHTM(4)
//	sys.Atomic(0, sihtm.KindUpdate, func(ops sihtm.Ops) {
//	    ops.Write(x, ops.Read(x)+1)
//	})
//
// Transaction bodies receive an Ops handle whose Read/Write operate on
// the shared simulated heap; Atomic returns only after the transaction
// committed (retrying and falling back internally). Addresses are
// allocated from the runtime's heap and passed around like pointers.
//
// Workers are identified by a hardware-thread id in [0, threads); the
// thread→core placement (and therefore TMCAM sharing between SMT
// siblings) follows the paper's 10-core × SMT-8 POWER8 unless configured
// otherwise.
//
// The package's Examples (example_test.go) are its demonstrations, and
// go test checks their output: the write skew SI admits and read
// promotion forbids (§2.1), and the capacity and SMT effects that stop
// plain HTM but not SI-HTM (§2.2, Fig. 6).
package sihtm

import (
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	isihtm "sihtm/internal/sihtm"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"

	"sihtm/internal/htmtm"
	"sihtm/internal/p8tm"
	"sihtm/internal/sgl"
	"sihtm/internal/silo"
)

// Re-exported core types: the public API is expressed entirely in terms
// of these.
type (
	// Addr is a word address into the simulated heap.
	Addr = memsim.Addr
	// Heap is the simulated, cache-line-structured shared memory.
	Heap = memsim.Heap
	// Ops is the transactional access interface handed to bodies.
	Ops = tm.Ops
	// Kind declares a transaction read-only or updating at launch.
	Kind = tm.Kind
	// System is a complete concurrency control.
	System = tm.System
	// Stats is a snapshot of commit/abort counters.
	Stats = stats.Stats
	// AbortKind classifies aborts (transactional, non-transactional,
	// capacity, ...) as in the paper's figures.
	AbortKind = stats.AbortKind
	// Topology describes the simulated multicore.
	Topology = topology.Topology
)

// Re-exported constants.
const (
	// KindUpdate marks a transaction that may write shared data.
	KindUpdate = tm.KindUpdate
	// KindReadOnly promises a transaction writes no shared data.
	KindReadOnly = tm.KindReadOnly

	// AbortTransactional counts conflicts with other transactions.
	AbortTransactional = stats.AbortTransactional
	// AbortNonTransactional counts kills by plain accesses (SGL, quiescent
	// readers).
	AbortNonTransactional = stats.AbortNonTransactional
	// AbortCapacity counts TMCAM overflows.
	AbortCapacity = stats.AbortCapacity

	// WordsPerLine is the simulated cache-line size in 64-bit words.
	WordsPerLine = memsim.WordsPerLine
	// LineBytes is the simulated cache-line size in bytes (POWER8: 128).
	LineBytes = memsim.LineBytes
)

// Config sizes a Runtime.
type Config struct {
	// Cores and SMTWays define the simulated machine. Zero values mean
	// the paper's POWER8: 10 cores × SMT-8. Every core has the
	// hardware's 64-line TMCAM, shared by its SMT siblings.
	Cores   int
	SMTWays int
	// HeapLines is the simulated memory size in cache lines. 0 means
	// 1<<16 lines (8 MiB).
	HeapLines int
}

// Runtime owns a simulated machine and its heap. All systems created from
// one Runtime share memory and hardware, so they must not run workloads
// concurrently with each other.
type Runtime struct {
	heap    *memsim.Heap
	machine *htm.Machine
}

// New builds a runtime.
func New(cfg Config) *Runtime {
	if cfg.Cores == 0 {
		cfg.Cores = topology.PaperCores
	}
	if cfg.SMTWays == 0 {
		cfg.SMTWays = topology.PaperSMTWays
	}
	if cfg.HeapLines == 0 {
		cfg.HeapLines = 1 << 16
	}
	heap := memsim.NewHeapLines(cfg.HeapLines)
	machine := htm.NewMachine(heap, htm.Config{Topology: topology.New(cfg.Cores, cfg.SMTWays)})
	return &Runtime{heap: heap, machine: machine}
}

// Heap returns the shared simulated memory. Allocation and raw
// (non-transactional) access are only safe for setup and verification,
// outside concurrent transactional execution.
func (r *Runtime) Heap() *Heap { return r.heap }

// Topology returns the simulated machine layout.
func (r *Runtime) Topology() Topology { return r.machine.Topology() }

// MaxThreads returns the simulated hardware thread count.
func (r *Runtime) MaxThreads() int { return r.machine.Topology().MaxThreads() }

// SIHTM is the paper's system, exposing AtomicBatch (§6 batching) beyond
// the System interface.
type SIHTM = isihtm.System

// NewSIHTM builds the paper's SI-HTM system for the given worker count,
// with the artifact's retry budget and read-only fast path.
func (r *Runtime) NewSIHTM(threads int) *SIHTM {
	return isihtm.NewSystem(r.machine, threads, isihtm.Config{})
}

// NewHTM builds the plain-HTM baseline (regular transactions, early lock
// subscription, SGL fall-back).
func (r *Runtime) NewHTM(threads int) System {
	return htmtm.NewSystem(r.machine, threads, htmtm.Config{})
}

// NewP8TM builds the P8TM baseline (ROTs + software read logging +
// quiescence; serializable).
func (r *Runtime) NewP8TM(threads int) System {
	return p8tm.NewSystem(r.machine, threads, p8tm.Config{})
}

// NewSilo builds the Silo baseline (software OCC, no hardware support).
func (r *Runtime) NewSilo(threads int) System {
	return silo.NewSystem(r.heap, threads)
}

// NewSGL builds the single-global-lock reference system.
func (r *Runtime) NewSGL(threads int) System {
	return sgl.NewSystem(r.machine, threads)
}

// PromoteRead performs a promoted read: the value is read and immediately
// written back, inserting the location into the transaction's write set.
// This is the paper's §2.1 fix for write-skew anomalies: under SI the
// promotion turns the skew into a write-write conflict that aborts one of
// the transactions.
func PromoteRead(ops Ops, a Addr) uint64 {
	v := ops.Read(a)
	ops.Write(a, v)
	return v
}
