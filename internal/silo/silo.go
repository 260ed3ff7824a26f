// Package silo implements the Silo baseline (Tu et al., SOSP'13) the
// paper compares against in §4.2: a software optimistic concurrency
// control for in-memory databases. As in the paper's evaluation, record
// indexing is out of scope ("we disable record indexing in Silo") — what
// runs here is Silo's core protocol at cache-line granularity over the
// shared simulated heap:
//
//   - every cache line has a TID word (lock bit + version);
//   - reads snapshot the line version before and after the load and
//     record (line, version) in the read set;
//   - writes are buffered;
//   - commit locks the write lines in address order, validates that every
//     read-set entry still carries its recorded version and is not locked
//     by another transaction, installs the writes, and bumps versions.
//
// Silo needs no hardware support and has no capacity limits, but pays
// software instrumentation on every access — the trade-off the paper's
// TPC-C figures illustrate. It is built on an htm.Machine all the same,
// for two things only: the machine's heap, and the machine's commit
// hook, the one seat every system's commits are captured from.
package silo

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

// tidWord encoding: bit 0 is the lock bit, the rest is the version.
const lockBit = 1

// readEntry records one read-set item.
type readEntry struct {
	line memsim.Line
	tid  uint64
}

// worker is one thread's transaction scratch, reused across attempts.
// Buffered writes use footprint.Entry so the write set can be handed to
// the durability commit hook without conversion.
type worker struct {
	reads      []readEntry
	writes     []footprint.Entry
	writeLines []memsim.Line
	_          [64]byte
}

// System is the Silo concurrency control.
type System struct {
	m       *htm.Machine // its commit hook brackets every install
	heap    *memsim.Heap
	tids    []atomic.Uint64 // one per heap cache line
	threads int
	col     *stats.Collector
	workers []worker
}

// NewSystem builds Silo over m's heap for the given worker count.
func NewSystem(m *htm.Machine, threads int) *System {
	if threads <= 0 {
		panic(fmt.Sprintf("silo: thread count must be positive, got %d", threads))
	}
	heap := m.Heap()
	lines := (heap.Size() + memsim.WordsPerLine - 1) / memsim.WordsPerLine
	return &System{
		m:       m,
		heap:    heap,
		tids:    make([]atomic.Uint64, lines),
		threads: threads,
		col:     stats.New(threads),
		workers: make([]worker, threads),
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "silo" }

// Threads implements tm.System.
func (s *System) Threads() int { return s.threads }

// Collector implements tm.System.
func (s *System) Collector() *stats.Collector { return s.col }

// ops is the instrumented access path for one attempt.
type ops struct {
	s *System
	w *worker
}

// Read implements tm.Ops: an OCC consistent read with read-set logging.
func (o ops) Read(a memsim.Addr) uint64 {
	// Reads-own-writes first.
	for i := len(o.w.writes) - 1; i >= 0; i-- {
		if o.w.writes[i].Addr == a {
			return o.w.writes[i].Val
		}
	}
	line := memsim.LineOf(a)
	tid := &o.s.tids[line]
	for {
		v1 := tid.Load()
		if v1&lockBit != 0 {
			runtime.Gosched()
			continue
		}
		val := o.s.heap.Load(a)
		if tid.Load() == v1 {
			o.w.reads = append(o.w.reads, readEntry{line: line, tid: v1})
			return val
		}
	}
}

// Write implements tm.Ops: buffered until commit.
func (o ops) Write(a memsim.Addr, v uint64) {
	for i := range o.w.writes {
		if o.w.writes[i].Addr == a {
			o.w.writes[i].Val = v
			return
		}
	}
	o.w.writes = append(o.w.writes, footprint.Entry{Addr: a, Val: v})
	line := memsim.LineOf(a)
	for _, l := range o.w.writeLines {
		if l == line {
			return
		}
	}
	o.w.writeLines = append(o.w.writeLines, line)
}

// Atomic implements tm.System: optimistic execution with commit-time
// validation, retried until it succeeds (Silo has no fall-back path and
// guarantees progress probabilistically, as in the original system).
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	w := &s.workers[thread]
	l := s.col.Thread(thread)
	for {
		w.reads = w.reads[:0]
		w.writes = w.writes[:0]
		w.writeLines = w.writeLines[:0]
		body(ops{s: s, w: w})
		if s.commit(w, thread) {
			l.Commit(kind == tm.KindReadOnly)
			return
		}
		l.Abort(stats.AbortTransactional)
		runtime.Gosched()
	}
}

// commit runs Silo's three-phase commit. It reports success; on failure
// all locks are released and nothing was installed.
func (s *System) commit(w *worker, thread int) bool {
	// Phase 1: lock the write set in canonical (address) order.
	sort.Slice(w.writeLines, func(i, j int) bool { return w.writeLines[i] < w.writeLines[j] })
	locked := 0
	for _, line := range w.writeLines {
		tid := &s.tids[line]
		for {
			v := tid.Load()
			if v&lockBit != 0 {
				runtime.Gosched()
				continue
			}
			if tid.CompareAndSwap(v, v|lockBit) {
				break
			}
		}
		locked++
	}
	// Phase 2: validate the read set.
	for _, e := range w.reads {
		cur := s.tids[e.line].Load()
		if cur&lockBit != 0 && !w.ownsLine(e.line) {
			s.unlock(w, locked, false)
			return false
		}
		if cur&^uint64(lockBit) != e.tid {
			s.unlock(w, locked, false)
			return false
		}
	}
	// Phase 3: install writes and bump versions (which also unlocks).
	// With a commit hook installed on the machine, the install is
	// bracketed like the hardware write-back: a conflicting later commit
	// blocks on the line locks until this one unlocks, so sequence
	// numbers drawn in PreCommit respect the OCC serialization order.
	hook := s.m.CommitHook()
	hooked := hook != nil && len(w.writes) > 0
	if hooked {
		hook.PreCommit(thread, w.writes)
	}
	for _, we := range w.writes {
		s.heap.Store(we.Addr, we.Val)
	}
	if hooked {
		hook.PostCommit(thread)
	}
	s.unlock(w, locked, true)
	return true
}

// unlock releases the first n locked write lines, bumping versions when
// the commit succeeded.
func (s *System) unlock(w *worker, n int, bump bool) {
	for _, line := range w.writeLines[:n] {
		tid := &s.tids[line]
		v := tid.Load()
		if bump {
			tid.Store((v &^ uint64(lockBit)) + 2) // +2: version is v>>1
		} else {
			tid.Store(v &^ uint64(lockBit))
		}
	}
}

func (w *worker) ownsLine(line memsim.Line) bool {
	for _, l := range w.writeLines {
		if l == line {
			return true
		}
	}
	return false
}

var _ tm.System = (*System)(nil)
