// Package memsim provides the simulated, cache-line-structured memory that
// every concurrency control in this repository operates on.
//
// The paper's systems manipulate pre-allocated memory locations indexed by
// virtual address (§3), and the P8-HTM hardware tracks conflicts and
// capacity at the granularity of 128-byte cache lines (§2.2). memsim
// reproduces that addressing model in software: memory is a flat array of
// 64-bit words, grouped into lines of 16 words (128 bytes), and every
// address can be mapped to its line. Workloads lay out their records over
// this heap exactly as a C program would lay them out over real memory, so
// transaction footprints (in cache lines) — the quantity the paper's whole
// argument revolves around — are meaningful.
//
// Raw Load/Store accessors are atomic but perform no conflict detection;
// they are the substrate the HTM simulator (internal/htm) builds on, and
// are also used for single-threaded setup and verification.
//
// Where the host keeps a word is this package's business alone. The
// heap's slice holds two banks: first the low halves (words 0–7) of
// every line, then the high halves (words 8–15), so word a of line
// l = a>>4 sits at host index (a>>3&1)·H + 8l + (a&7), H being 8 × the
// line count. Everything above Load, Store and CompareAndSwap — Size,
// the allocators, Zero, Digest, checkpoints — sees logical addresses
// only. The reason is the pointer chase of Fig. 6: a hash-map chain node
// uses words 0–2 of its line, so banked, the nodes of a chain laid on
// consecutive lines sit on consecutive 64-byte host lines. The walk's
// host footprint is half what whole 128-byte lines would cost, and the
// adjacent-line prefetcher fetches the next node instead of a node's
// unused high half.
//
// On linux NewHeap advises the 2 MB-aligned interior of the heap (an
// ordinary Go slice) MADV_HUGEPAGE before first touch. The paper's POWER8
// Linux runs on 64 KB base pages; a pointer chase over Fig. 6's 26 MB on
// 4 KB pages misses the TLB at nearly every node, and on a virtualised
// x86 host each miss is a nested page walk: a cost of the host, not of
// the modelled memory. Heaps under 2 MB are left alone, a refused
// madvise is ignored, and under THP "never" nothing changes.
package memsim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache-line geometry of the IBM POWER8/9 (paper §2.2: the 8 KB TMCAM
// holds 64 lines of 128 bytes).
const (
	WordBytes     = 8
	LineBytes     = 128
	WordsPerLine  = LineBytes / WordBytes // 16
	lineShift     = 4                     // log2(WordsPerLine)
	lineWordsMask = WordsPerLine - 1
)

// Addr is a word address into a Heap. Address 0 is valid; workloads that
// need a nil sentinel reserve it via NewHeap's first allocation.
type Addr uint64

// Line identifies a cache line (Addr >> lineShift).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> lineShift) }

// WordInLine returns a's word offset within its cache line.
func WordInLine(a Addr) int { return int(a & lineWordsMask) }

// FirstAddr returns the address of the first word of line l.
func (l Line) FirstAddr() Addr { return Addr(l) << lineShift }

// LinesSpanned reports how many cache lines an object of size words
// starting at a touches.
func LinesSpanned(a Addr, words int) int {
	if words <= 0 {
		return 0
	}
	first := LineOf(a)
	last := LineOf(a + Addr(words) - 1)
	return int(last-first) + 1
}

// Heap is a flat, fixed-capacity simulated memory with a thread-safe bump
// allocator. All word accesses are atomic, which makes the raw accessors
// safe under the race detector; isolation and conflict detection are the
// job of the layers above.
type Heap struct {
	words []uint64      // the low bank, then the high bank (see slot)
	size  uint64        // capacity in words, as addressed
	half  uint64        // words per bank: 8 × the line count
	next  atomic.Uint64 // bump pointer, in words

	volatileMu sync.Mutex
	volatile   []Line // lines handed out by AllocVolatileLine
}

// NewHeap creates a heap holding the given number of words. The first word
// is pre-allocated so that Addr 0 can serve as a null sentinel.
func NewHeap(words int) *Heap {
	if words <= 0 {
		panic(fmt.Sprintf("memsim: heap size must be positive, got %d words", words))
	}
	lines := (words + lineWordsMask) >> lineShift
	h := &Heap{
		words: make([]uint64, lines*WordsPerLine),
		size:  uint64(words),
		half:  uint64(lines * WordsPerLine / 2),
	}
	_ = adviseHuge(h.words) // before first touch; a refusal costs speed only
	h.next.Store(1)         // reserve Addr 0 as nil
	return h
}

// NewHeapLines creates a heap holding the given number of cache lines.
func NewHeapLines(lines int) *Heap { return NewHeap(lines * WordsPerLine) }

// Size returns the heap capacity in words.
func (h *Heap) Size() int { return int(h.size) }

// Allocated returns the number of words handed out so far (including the
// reserved null word and any alignment padding).
func (h *Heap) Allocated() int { return int(h.next.Load()) }

// slot returns the host index of word a: the low bank holds words 0–7
// of every line and the high bank words 8–15, each half-line at 8 × its
// line number, so bit 3 of a picks the bank and the rest of a, less
// that bit, is the index within it. -(x>>3&1) is all ones for a high
// word: the bank offset is an AND, not a multiply, on the path from an
// address to its access. An address at or past Size() panics, including
// one in the slack of a last line Size() ends inside.
func (h *Heap) slot(a Addr) uint64 {
	if uint64(a) >= h.size {
		panic("memsim: address outside the heap")
	}
	x := uint64(a)
	return h.half&-(x>>3&1) + (x>>1&^7 | x&7)
}

// Load atomically reads the word at a. It performs no conflict detection.
func (h *Heap) Load(a Addr) uint64 {
	return atomic.LoadUint64(&h.words[h.slot(a)])
}

// Store atomically writes the word at a. It performs no conflict detection.
func (h *Heap) Store(a Addr, v uint64) {
	atomic.StoreUint64(&h.words[h.slot(a)], v)
}

// CompareAndSwap atomically replaces the word at a with new if it equals
// old, reporting whether the swap happened. It performs no conflict
// detection; the HTM layer wraps it for lock words that live in the heap.
func (h *Heap) CompareAndSwap(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.words[h.slot(a)], old, new)
}

// Alloc reserves size words with no particular alignment and returns the
// address of the first. It is safe for concurrent use. Alloc panics if the
// heap is exhausted: heaps are sized up-front from workload parameters, so
// exhaustion is a configuration bug, not a runtime condition.
func (h *Heap) Alloc(size int) Addr {
	return h.AllocAligned(size, 1)
}

// AllocLine reserves one full cache line, line-aligned. This is the
// workhorse for workloads that want a known per-object footprint of
// exactly one line (e.g. hash-map chain nodes, matching the paper's
// "one element ≈ one cache line" footprint accounting).
func (h *Heap) AllocLine() Addr {
	return h.AllocAligned(WordsPerLine, WordsPerLine)
}

// AllocVolatileLine is AllocLine for a line whose contents are not part
// of the heap's persistent state (a lock word: acquire and release are
// plain accesses no log records). The line's address and the allocation
// order are AllocLine's; a checkpoint writes its words as zero.
func (h *Heap) AllocVolatileLine() Addr {
	a := h.AllocLine()
	h.volatileMu.Lock()
	h.volatile = append(h.volatile, LineOf(a))
	h.volatileMu.Unlock()
	return a
}

// VolatileLines returns the lines handed out by AllocVolatileLine.
func (h *Heap) VolatileLines() []Line {
	h.volatileMu.Lock()
	defer h.volatileMu.Unlock()
	return append([]Line(nil), h.volatile...)
}

// AllocLines reserves n full cache lines, line-aligned.
func (h *Heap) AllocLines(n int) Addr {
	return h.AllocAligned(n*WordsPerLine, WordsPerLine)
}

// AllocAligned reserves size words aligned to alignWords (which must be a
// power of two) and returns the address of the first.
func (h *Heap) AllocAligned(size, alignWords int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: allocation size must be positive, got %d", size))
	}
	if alignWords <= 0 || alignWords&(alignWords-1) != 0 {
		panic(fmt.Sprintf("memsim: alignment must be a positive power of two, got %d", alignWords))
	}
	mask := uint64(alignWords - 1)
	for {
		cur := h.next.Load()
		start := (cur + mask) &^ mask
		end := start + uint64(size)
		if end > h.size {
			panic(fmt.Sprintf("memsim: heap exhausted: need %d words at %d, capacity %d",
				size, start, h.size))
		}
		if h.next.CompareAndSwap(cur, end) {
			return Addr(start)
		}
	}
}

// RestoreAllocated resets the bump pointer to the given watermark —
// recovery support: a restored heap image must also restore how much of
// the heap was handed out, or post-recovery allocations would overlap
// live data. Quiescent use only.
func (h *Heap) RestoreAllocated(words int) {
	if words < 1 || uint64(words) > h.size {
		panic(fmt.Sprintf("memsim: restore watermark %d out of [1,%d]", words, h.size))
	}
	h.next.Store(uint64(words))
}

// Digest fingerprints the heap image: FNV-1a over every word in address
// order, then the allocation watermark, as 16 hex digits. Two builds
// that are meant to be the same base image (a leader's and its
// follower's, a run's and its recovery's) must have the same digest.
// Quiescent use only.
func (h *Heap) Digest() string {
	const prime = 1099511628211
	d := uint64(14695981039346656037)
	for a := Addr(0); a < Addr(h.size); a++ {
		d = (d ^ h.Load(a)) * prime
	}
	d = (d ^ uint64(h.Allocated())) * prime
	return fmt.Sprintf("%016x", d)
}

// Zero clears size words starting at a. Setup-time helper; not atomic as a
// unit (each word store is atomic).
func (h *Heap) Zero(a Addr, size int) {
	for i := 0; i < size; i++ {
		h.Store(a+Addr(i), 0)
	}
}
