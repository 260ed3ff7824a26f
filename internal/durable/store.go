// Package durable makes the transactional engine survive restarts: it
// couples the simulated heap with a write-ahead log (internal/wal) and
// fuzzy checkpoints, behind the commit-hook seam of the machine every
// TM backend in the repository is built on (htm.CommitHook). The
// design follows the back-end-logging school of hardware transactional
// persistence (Giles/Doshi/Varman's HTPM): the hardware commit path is
// never stalled by I/O — redo records are captured from the write
// buffer inside the commit bracket, sequenced, and made durable
// asynchronously by the log's group-commit daemon. The store logs and
// acknowledges nothing: Atomic returns at commit, and whoever releases
// a result waits for the log itself (the wire server's connection
// writer: internal/server).
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
//   - Acknowledged ⇒ present, under the one acknowledgement rule: a
//     result is released only once DurableSeq covers ThreadSeq (if the
//     transaction logged a record) or LastSeq read after Atomic
//     returned (if it did not — a read-only transaction may have
//     observed a committed-but-not-yet-durable write). Log().WaitDurable
//     is the wait. Every acknowledged transaction is then inside the
//     recovered prefix.
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
	"sihtm/internal/tm"
	"sihtm/internal/wal"
)

// Config tunes a Store.
type Config struct {
	// Window and WaitAck are read by nothing. The log flushes the moment
	// a record is pending, and the caller, not the store, waits for the
	// fsync that acknowledges a result. The fields stay because
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
	seq uint64 // owned by the thread between PreCommit and ack
	_   [120]byte
}

// Store is the durability manager for one heap: it implements
// htm.CommitHook (= tm.CommitHook), so installing it on the machine
// routes every committed write set of every system built on that
// machine into the log.
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
// the TM critical section, in whoever releases the result.
func (s *Store) PostCommit(thread int) {
	s.barrier.RUnlock()
}

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

// Attach installs the store as m's commit hook, which covers every
// commit of sys (built on m): hardware commits, SGL fall-backs and
// Silo's installs alike. It returns sys itself: Atomic returns at
// commit, and the caller acknowledges with Log().WaitDurable (package
// comment). Call before any transaction runs.
func (s *Store) Attach(sys tm.System, m *htm.Machine) tm.System {
	m.SetCommitHook(s)
	return sys
}

var _ htm.CommitHook = (*Store)(nil)
