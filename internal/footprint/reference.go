package footprint

import "sihtm/internal/memsim"

// This file keeps the pre-optimisation linear-scan implementation as a
// differential-testing oracle: it implements the same contract as
// WriteBuffer with the simplest possible code (the exact shape
// internal/htm used before the O(1) structure), so the property test
// can drive both over long random operation sequences and demand
// identical answers.

// RefWriteBuffer is a linear-scan write buffer. Get reverse-scans so the
// most recent store wins, exactly as the simulator's first store
// buffer did.
type RefWriteBuffer struct {
	entries []Entry
}

// Len returns the number of distinct buffered addresses.
func (b *RefWriteBuffer) Len() int { return len(b.entries) }

// Entries returns the buffered stores in first-write order.
func (b *RefWriteBuffer) Entries() []Entry { return b.entries }

// Get returns the buffered value for a, if any.
func (b *RefWriteBuffer) Get(a memsim.Addr) (uint64, bool) {
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].Addr == a {
			return b.entries[i].Val, true
		}
	}
	return 0, false
}

// Put buffers a store of v to a, overwriting any previous value.
func (b *RefWriteBuffer) Put(a memsim.Addr, v uint64) {
	for i := range b.entries {
		if b.entries[i].Addr == a {
			b.entries[i].Val = v
			return
		}
	}
	b.entries = append(b.entries, Entry{Addr: a, Val: v})
}

// Reset empties the buffer.
func (b *RefWriteBuffer) Reset() { b.entries = b.entries[:0] }
