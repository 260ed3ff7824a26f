package footprint

import (
	"testing"

	"sihtm/internal/memsim"
	"sihtm/internal/rng"
)

// TestWriteBufferBasic exercises upsert and reads-own-writes by hand.
func TestWriteBufferBasic(t *testing.T) {
	var b WriteBuffer
	if _, ok := b.Get(0); ok {
		t.Fatal("zero-value buffer not empty")
	}
	for i := 0; i < 3*inlineCap; i++ {
		b.Put(memsim.Addr(i), uint64(i))
	}
	b.Put(2, 999) // overwrite must win and not grow the buffer
	if b.Len() != 3*inlineCap {
		t.Fatalf("Len=%d want %d", b.Len(), 3*inlineCap)
	}
	if v, ok := b.Get(2); !ok || v != 999 {
		t.Fatalf("Get(2)=%d,%v want 999,true", v, ok)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("buffer not empty after Reset")
	}
	if _, ok := b.Get(2); ok {
		t.Fatal("stale value visible after Reset")
	}
}

// TestWriteBufferDifferential drives the open-addressing buffer and the
// linear reference through 10k mixed random operations — Put upserts,
// Get lookups, entry iteration and occasional resets, over an address
// range small enough to force collisions and overwrites — and demands
// identical answers.
func TestWriteBufferDifferential(t *testing.T) {
	r := rng.New(0xbeef)
	var fast WriteBuffer
	var ref RefWriteBuffer
	for op := 0; op < 10_000; op++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // Put
			a := memsim.Addr(r.Intn(768))
			v := r.Uint64()
			fast.Put(a, v)
			ref.Put(a, v)
		case 4, 5, 6, 7: // Get
			a := memsim.Addr(r.Intn(768))
			gv, gok := fast.Get(a)
			wv, wok := ref.Get(a)
			if gok != wok || gv != wv {
				t.Fatalf("op %d: Get(%d)=%d,%v, reference says %d,%v", op, a, gv, gok, wv, wok)
			}
		case 8: // full-state check
			if fast.Len() != ref.Len() {
				t.Fatalf("op %d: Len=%d, reference says %d", op, fast.Len(), ref.Len())
			}
			for i, e := range ref.Entries() {
				if fast.Entries()[i] != e {
					t.Fatalf("op %d: Entries()[%d]=%+v, reference says %+v", op, i, fast.Entries()[i], e)
				}
			}
		case 9:
			if r.Intn(20) == 0 {
				fast.Reset()
				ref.Reset()
			}
		}
	}
}

// TestResetCapsRetention verifies the pooled-capacity caps: a buffer
// grown past the retention limits must shed its backing storage on
// Reset, and still work afterwards.
func TestResetCapsRetention(t *testing.T) {
	var b WriteBuffer
	for i := 0; i < 2*maxRetainedElems; i++ {
		b.Put(memsim.Addr(i), uint64(i))
	}
	if cap(b.elems) <= maxRetainedElems || len(b.table) <= maxRetainedSlots {
		t.Skipf("buffer did not outgrow retention caps (cap=%d slots=%d)", cap(b.elems), len(b.table))
	}
	b.Reset()
	if cap(b.elems) > maxRetainedElems {
		t.Fatalf("Reset retained %d entries of capacity, cap is %d", cap(b.elems), maxRetainedElems)
	}
	if len(b.table) > maxRetainedSlots {
		t.Fatalf("Reset retained %d table slots, cap is %d", len(b.table), maxRetainedSlots)
	}
	b.Put(3, 30)
	if v, ok := b.Get(3); !ok || v != 30 || b.Len() != 1 {
		t.Fatal("buffer broken after capacity shed")
	}
	if _, ok := b.Get(4); ok {
		t.Fatal("stale entry visible after capacity shed")
	}
}

// TestWriteBufferSteadyStateAllocs pins the steady-state access path at
// zero heap allocations: once the buffer has grown its table, a
// Put/Get/Reset cycle over the same footprint must never allocate.
func TestWriteBufferSteadyStateAllocs(t *testing.T) {
	var b WriteBuffer
	const words = 1024
	for i := 0; i < words; i++ {
		b.Put(memsim.Addr(i), uint64(i))
	}
	b.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < words; i++ {
			b.Put(memsim.Addr(i), uint64(i))
		}
		for i := 0; i < words; i++ {
			if v, ok := b.Get(memsim.Addr(i)); !ok || v != uint64(i) {
				t.Fatal("lost buffered write")
			}
		}
		b.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteBuffer cycle allocates %.1f/run, want 0", allocs)
	}
}
