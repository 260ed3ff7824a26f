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
//   - writes are buffered in the worker's tm.Recorder, the store buffer
//     and publication bracket every software write set shares;
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
	"runtime"
	"slices"
	"sync/atomic"

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
// The body runs against rec, whose inner Ops is the worker itself: Read
// is the OCC read, Write the heap install rec.Flush calls in phase 3.
type worker struct {
	s          *System
	rec        tm.Recorder
	reads      []readEntry
	writeLines []memsim.Line // the write set's lines, sorted, distinct
	_          [64]byte
}

// System is the Silo concurrency control.
type System struct {
	tm.Base
	m       *htm.Machine // its commit hook brackets every install
	heap    *memsim.Heap
	tids    []atomic.Uint64 // one per heap cache line
	workers []worker
}

// NewSystem builds Silo over m's heap for the given worker count.
func NewSystem(m *htm.Machine, threads int) *System {
	heap := m.Heap()
	lines := (heap.Size() + memsim.WordsPerLine - 1) / memsim.WordsPerLine
	s := &System{
		Base:    tm.NewBase("silo", threads),
		m:       m,
		heap:    heap,
		tids:    make([]atomic.Uint64, lines),
		workers: make([]worker, threads),
	}
	for i := range s.workers {
		s.workers[i].s = s
	}
	return s
}

// Read implements tm.Ops for the worker's Recorder: an OCC consistent
// read with read-set logging (the Recorder has served reads-own-writes).
func (w *worker) Read(a memsim.Addr) uint64 {
	line := memsim.LineOf(a)
	tid := &w.s.tids[line]
	for {
		v1 := tid.Load()
		if v1&lockBit != 0 {
			runtime.Gosched()
			continue
		}
		val := w.s.heap.Load(a)
		if tid.Load() == v1 {
			w.reads = append(w.reads, readEntry{line: line, tid: v1})
			return val
		}
	}
}

// Write implements tm.Ops for the worker's Recorder: the install of one
// buffered store, under the line's lock.
func (w *worker) Write(a memsim.Addr, v uint64) { w.s.heap.Store(a, v) }

// Atomic implements tm.System: optimistic execution with commit-time
// validation, retried until it succeeds (Silo has no fall-back path and
// guarantees progress probabilistically, as in the original system).
func (s *System) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	w := &s.workers[thread]
	l := s.Collector().Thread(thread)
	for {
		w.reads = w.reads[:0]
		w.rec.Begin(w)
		body(&w.rec)
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
	w.writeLines = w.writeLines[:0]
	for _, e := range w.rec.Entries() {
		w.writeLines = append(w.writeLines, memsim.LineOf(e.Addr))
	}
	slices.Sort(w.writeLines)
	w.writeLines = slices.Compact(w.writeLines)
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
	// With a commit hook installed on the machine, Flush brackets the
	// install like the hardware write-back: a conflicting later commit
	// blocks on the line locks until this one unlocks, so sequence
	// numbers drawn in PreCommit respect the OCC serialization order.
	w.rec.Flush(thread, s.m.CommitHook())
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
	_, ok := slices.BinarySearch(w.writeLines, line)
	return ok
}

var _ tm.System = (*System)(nil)
