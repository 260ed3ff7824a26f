// Package footprint provides the one store buffer every write set in
// this repository lives in: an address-indexed map from each word a
// transaction wrote to the value it will publish at commit, with O(1)
// insertion and lookup regardless of transaction size. It backs the
// hardware transaction (htm.Tx) and the software publication path
// (tm.Recorder), and through the Recorder the serial fall-back and
// every Silo attempt. The read and write sets of a hardware transaction
// need no structure of their own: the conflict directory's ownership
// word and reader bit per line answer membership (internal/htm,
// directory.go).
//
// The paper's whole argument concerns transactions far larger than the
// TMCAM — SI-HTM stretches ROT capacity to ~100× the 64-line limit — so
// the simulator's per-access software cost must not grow with the very
// footprint the evaluation sweeps, nor may a baseline's (Silo, P8TM)
// grow where SI-HTM's does not. The buffer replaces the linear scans
// the simulator and the baselines started with (O(N) per access, O(N²)
// per transaction) and is engineered for the two regimes that matter:
//
//   - Tiny transactions (the common case): entries live in a small
//     inline array scanned linearly — no hashing, no heap allocation,
//     hot in the owner's cache line.
//   - Large transactions: an open-addressing, power-of-two hash table
//     with Fibonacci hashing and linear probing. Emptying the table is
//     O(1) via a generation counter, so a recycled transaction pays
//     nothing to reset, and the backing arrays are retained (up to a
//     cap) across transactions so steady-state commits allocate zero.
//
// Each owner — a hardware thread's Tx, a Recorder per worker slot —
// keeps one WriteBuffer and recycles it across attempts. The package
// also ships a reference linear-scan implementation (reference.go) used
// as the oracle of the differential test.
package footprint

import (
	"math/bits"

	"sihtm/internal/memsim"
)

const (
	// inlineCap is how many entries are kept by linear scan over the
	// inline array before a hash table is built. 8 covers the bulk of
	// OLTP-style transactions (TPC-C payment touches ~6 lines).
	inlineCap = 8

	// firstTableSize is the initial hash-table size once a buffer
	// outgrows the inline array. Must be a power of two.
	firstTableSize = 64

	// maxRetainedElems caps the element-slice capacity kept across
	// Resets; larger slices are released so one giant transaction does
	// not pin memory on its thread forever. The cap must comfortably
	// exceed the largest footprint the bench suite sweeps (4096 lines)
	// because append's ~1.25× growth overshoots the element count — a
	// tighter cap would shed and re-grow the slice on every reuse.
	maxRetainedElems = 8192

	// maxRetainedSlots caps the hash-table size kept across Resets:
	// enough to hold maxRetainedElems at the growth load factor.
	maxRetainedSlots = 16384

	// growNum/growDen is the load factor threshold (3/4): the table
	// doubles when it is three-quarters full.
	growNum, growDen = 3, 4
)

// hashAddr mixes a word address for table placement (Fibonacci hashing:
// multiply by 2^64/φ and take the top bits via the table's shift).
func hashAddr(a memsim.Addr) uint64 { return uint64(a) * 0x9e3779b97f4a7c15 }

// tableShift returns the right-shift that maps a 64-bit hash onto a
// power-of-two table of n slots.
func tableShift(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

// Entry is one buffered store: the word address and the value that will
// be published at commit.
type Entry struct {
	Addr memsim.Addr
	Val  uint64
}

// wslot is one open-addressing slot of a WriteBuffer: it maps an address
// to the index of its entry in the entries slice.
type wslot struct {
	key memsim.Addr
	gen uint64
	idx int32
}

// WriteBuffer is the transaction's buffered store set, indexed by word
// address: Put upserts (last write wins) and Get serves reads-own-writes
// in O(1). The zero value is ready to use. Not safe for concurrent use.
type WriteBuffer struct {
	gen    uint64
	elems  []Entry // distinct addresses in first-write order
	table  []wslot // nil while the inline linear scan suffices
	shift  uint
	inline [inlineCap]Entry
}

// Len returns the number of distinct buffered addresses.
func (b *WriteBuffer) Len() int { return len(b.elems) }

// Entries returns the buffered stores, one per distinct address, in
// first-write order with last-write-wins values. The slice aliases the
// buffer's storage: it is valid until the next Put or Reset.
func (b *WriteBuffer) Entries() []Entry { return b.elems }

// Get returns the buffered value for a, if any.
func (b *WriteBuffer) Get(a memsim.Addr) (uint64, bool) {
	if b.table == nil {
		for i := range b.elems {
			if b.elems[i].Addr == a {
				return b.elems[i].Val, true
			}
		}
		return 0, false
	}
	mask := uint64(len(b.table) - 1)
	for i := hashAddr(a) >> b.shift; ; i = (i + 1) & mask {
		sl := &b.table[i]
		if sl.gen != b.gen {
			return 0, false
		}
		if sl.key == a {
			return b.elems[sl.idx].Val, true
		}
	}
}

// Put buffers a store of v to a, overwriting any previous value.
func (b *WriteBuffer) Put(a memsim.Addr, v uint64) {
	if b.table == nil {
		for i := range b.elems {
			if b.elems[i].Addr == a {
				b.elems[i].Val = v
				return
			}
		}
		if b.elems == nil {
			b.elems = b.inline[:0]
		}
		b.elems = append(b.elems, Entry{Addr: a, Val: v})
		if len(b.elems) > inlineCap {
			b.grow(firstTableSize)
		}
		return
	}
	mask := uint64(len(b.table) - 1)
	for i := hashAddr(a) >> b.shift; ; i = (i + 1) & mask {
		sl := &b.table[i]
		if sl.gen != b.gen {
			sl.key, sl.gen, sl.idx = a, b.gen, int32(len(b.elems))
			b.elems = append(b.elems, Entry{Addr: a, Val: v})
			if len(b.elems)*growDen >= len(b.table)*growNum {
				b.grow(len(b.table) * 2)
			}
			return
		}
		if sl.key == a {
			b.elems[sl.idx].Val = v
			return
		}
	}
}

// grow (re)builds the index with n slots and reindexes every entry.
func (b *WriteBuffer) grow(n int) {
	if b.gen == 0 {
		b.gen = 1
	}
	b.table = make([]wslot, n)
	b.shift = tableShift(n)
	mask := uint64(n - 1)
	for idx := range b.elems {
		i := hashAddr(b.elems[idx].Addr) >> b.shift
		for b.table[i].gen == b.gen {
			i = (i + 1) & mask
		}
		b.table[i] = wslot{key: b.elems[idx].Addr, gen: b.gen, idx: int32(idx)}
	}
}

// Reset empties the buffer in O(1), retaining backing storage up to the
// package caps.
func (b *WriteBuffer) Reset() {
	if cap(b.elems) > maxRetainedElems {
		b.elems = b.inline[:0]
	} else if b.elems != nil {
		b.elems = b.elems[:0]
	}
	if len(b.table) > maxRetainedSlots {
		b.table = nil
		b.shift = 0
	}
	b.gen++
}
