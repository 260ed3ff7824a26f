// Package durable makes the transactional engine survive restarts: it
// couples the simulated heap with a write-ahead log (internal/wal) and
// fuzzy checkpoints, behind the commit-hook seam every TM backend in
// the repository exposes (htm.CommitHook / tm.HookableSystem). The
// design follows the back-end-logging school of hardware transactional
// persistence (Giles/Doshi/Varman's HTPM): the hardware commit path is
// never stalled by I/O — redo records are captured from the write
// buffer inside the commit bracket, sequenced, and made durable
// asynchronously by the log's group-commit daemon, with acknowledgement
// (the durability guarantee to the caller) deferred to the end of
// Atomic — or, for a caller that claimed its threads (ClaimAck: the
// wire server), handed to that caller, which commits on and holds each
// result back until DurableSeq covers it.
//
// Guarantees, in terms of the commit sequence number (LSN) the store
// assigns inside each commit's critical section:
//
//   - Prefix consistency: the state recovered after a crash is exactly
//     the state produced by commits 1..K in sequence order, for some K
//     ≥ the highest acknowledged sequence. The log's per-record CRC
//     discards the torn tail a crash leaves behind (K is the end of the
//     valid prefix), and conflicting transactions carry sequence
//     numbers in their serialization order, so replaying the prefix
//     reproduces a legal history.
//   - Acknowledged ⇒ present: on an unclaimed thread System.Atomic
//     returns only after the transaction's record is fsynced; on a
//     claimed thread the claimant releases no result before DurableSeq
//     covers the log position it executed at. Either way
//     every acknowledged transaction is inside the recovered prefix.
//   - Checkpoints are fuzzy: they run concurrently with commits and
//     never block the commit path for longer than two sequence-counter
//     reads. See checkpoint.go for the watermark argument.
package durable

import (
	"fmt"
	"sync"
	"time"

	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/wal"
)

// Config tunes a Store.
type Config struct {
	// Window and WaitAck are read by nothing. The log flushes the moment
	// a record is pending, and Atomic on an unclaimed thread always
	// waits for its record's fsync. The fields stay because
	// bench/seam.go, which is frozen, sets them.
	Window  time.Duration
	WaitAck bool
	// NoDaemon disables the log's background flusher (tests drive Sync
	// manually). Implies no acknowledgements until Sync.
	NoDaemon bool
}

// threadSeq is a per-thread last-assigned-sequence slot, padded so
// worker threads do not false-share.
type threadSeq struct {
	seq     uint64 // owned by the thread between PreCommit and ack
	claimed bool   // the thread's caller performs the durability wait (ClaimAck)
	_       [112]byte
}

// Store is the durability manager for one heap: it implements
// htm.CommitHook (= tm.CommitHook), so installing it on a machine and
// on a system's fall-back path routes every committed write set into
// the log.
type Store struct {
	heap    *memsim.Heap
	log     *wal.Log
	logPath string

	// barrier is the checkpoint barrier: every capture+publish runs
	// under RLock (PreCommit takes it, PostCommit releases it), so a
	// brief Lock observes a quiescent point — all assigned sequence
	// numbers fully published, no publication in flight. See
	// checkpoint.go.
	barrier sync.RWMutex

	last []threadSeq // per-thread last assigned sequence

	// ackHist observes how long a committed result waited for the
	// group-commit fsync before it could be acknowledged — the durability
	// tax as the caller feels it. System.Atomic observes it for unclaimed
	// threads, the claimant for claimed ones.
	ackHist stats.Histogram
}

// Open creates a store logging to logPath. The caller sizes last for
// the machine's hardware threads (one slot per thread id the hook may
// see).
func Open(heap *memsim.Heap, logPath string, threads int, cfg Config) (*Store, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("durable: thread count must be positive, got %d", threads)
	}
	l, err := wal.Create(logPath, wal.Config{NoDaemon: cfg.NoDaemon})
	if err != nil {
		return nil, err
	}
	return &Store{heap: heap, log: l, logPath: logPath, last: make([]threadSeq, threads)}, nil
}

// Log exposes the underlying write-ahead log (stats, manual Sync).
func (s *Store) Log() *wal.Log { return s.log }

// LogPath returns the log file's path — what a replication publisher
// tails and a promoted follower catches up from.
func (s *Store) LogPath() string { return s.logPath }

// DurableSeq returns the highest fsynced sequence number: the
// acknowledgement frontier, and the bound on what a leader may stream
// to followers (acked ⇒ on disk ⇒ shippable).
func (s *Store) DurableSeq() uint64 { return s.log.DurableSeq() }

// Heap returns the heap the store persists.
func (s *Store) Heap() *memsim.Heap { return s.heap }

// PreCommit implements htm.CommitHook: capture the redo record and
// enter the checkpoint barrier. Called inside the committing
// transaction's critical section, before its writes are visible, so
// the sequence number drawn here orders conflicting transactions
// exactly as the TM serialized them. Allocation-free at steady state
// (the log's append buffer is retained across flushes).
func (s *Store) PreCommit(thread int, entries []footprint.Entry) {
	s.barrier.RLock()
	s.last[thread].seq = s.log.Append(entries)
}

// PostCommit implements htm.CommitHook: the write set is now visible;
// leave the checkpoint barrier. The durability wait happens later, off
// the TM critical section, in System.Atomic.
func (s *Store) PostCommit(thread int) {
	s.barrier.RUnlock()
}

// WaitThread blocks until the last transaction committed by the given
// thread is durable. A thread whose last commit is already fsynced (or
// that has only run read-only transactions) returns immediately.
func (s *Store) WaitThread(thread int) {
	if seq := s.last[thread].seq; seq != 0 {
		s.log.WaitDurable(seq)
	}
}

// ClaimAck hands the durability wait of one thread's commits to the
// thread's caller: System.Atomic on a claimed thread returns at commit,
// and the claimant must release no result of a transaction — not even a
// read-only one, which may have observed a committed-but-not-yet-durable
// write — before DurableSeq covers ThreadSeq (if the transaction logged
// a record) or LastSeq read after Atomic returned (if it did not), and
// observes the wait into AckWaitHist. Call before the thread runs.
func (s *Store) ClaimAck(thread int) { s.last[thread].claimed = true }

// AckWaitHist returns the live ack-wait histogram: what telemetry
// registers and what a claimant (ClaimAck) observes into.
func (s *Store) AckWaitHist() *stats.Histogram { return &s.ackHist }

// ThreadSeq returns the sequence number the thread's last committed
// update transaction was assigned (zero before the first). Only the
// thread itself may call this between its own Atomics — the slot is
// thread-owned, exactly like the commit hook writes it. A sequence drawn
// in PreCommit is above that of every commit the transaction read from:
// a writer draws its own before its writes are visible.
func (s *Store) ThreadSeq(thread int) uint64 { return s.last[thread].seq }

// LastSeq returns the highest sequence number assigned so far.
func (s *Store) LastSeq() uint64 { return s.log.LastSeq() }

// Sync forces everything appended so far to disk.
func (s *Store) Sync() error { return s.log.Sync() }

// Close flushes and closes the log.
func (s *Store) Close() error { return s.log.Close() }

// Attach installs the store on a system: the machine-level hook covers
// hardware commits, the system-level hook (when the system implements
// tm.HookableSystem) covers its software publication paths, and the
// returned wrapper adds the end-of-Atomic durability wait. Call before
// any transaction runs. m may be nil for machine-less systems (Silo).
func (s *Store) Attach(sys tm.System, m *htm.Machine) tm.System {
	if m != nil {
		m.SetCommitHook(s)
	}
	if h, ok := sys.(tm.HookableSystem); ok {
		h.SetCommitHook(s)
	}
	return &System{inner: sys, store: s}
}

// System is the durable tm.System wrapper: Atomic commits through the
// inner system (whose hooks feed the store) and then, on a thread
// nobody claimed, blocks until the transaction's redo record is
// fsynced — group-commit acknowledgement. The fsync wait happens after
// the inner commit fully published (no TM locks held), so log latency
// never stalls conflicting threads, only the caller.
type System struct {
	inner tm.System
	store *Store
}

// Name implements tm.System (the durable wrapper keeps the inner name:
// registry records compare like against like).
func (d *System) Name() string { return d.inner.Name() }

// Threads implements tm.System.
func (d *System) Threads() int { return d.inner.Threads() }

// Collector implements tm.System.
func (d *System) Collector() *stats.Collector { return d.inner.Collector() }

// Atomic implements tm.System.
func (d *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	d.inner.Atomic(thread, kind, body)
	if !d.store.last[thread].claimed {
		t0 := time.Now()
		d.store.WaitThread(thread)
		d.store.ackHist.Observe(time.Since(t0))
	}
}

// Unwrap returns the inner system.
func (d *System) Unwrap() tm.System { return d.inner }

var _ tm.System = (*System)(nil)
var _ htm.CommitHook = (*Store)(nil)
