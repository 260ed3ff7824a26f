package engine

import (
	"fmt"
	"testing"

	"sihtm/internal/memsim"
)

// referencePopulate is the loop Populate ran before backends could offer
// a Loader: one quiescent session insert per key, highest key first. It
// is kept here as the definition of the populated image.
func referencePopulate(b Backend, spec Spec) {
	s := b.NewSession()
	ops := b.Direct()
	for k := spec.Keys - 1; k >= 0; k-- {
		s.Prepare(1)
		s.Reset()
		s.Insert(ops, uint64(k), InitialValue(uint64(k)))
		s.Commit()
	}
}

// sameImage fails unless the two heaps are equal word for word and in
// how much of them was handed out.
func sameImage(t *testing.T, want, got *memsim.Heap) {
	t.Helper()
	if want.Size() != got.Size() || want.Allocated() != got.Allocated() {
		t.Fatalf("heap is %d words with %d allocated, want %d with %d", got.Size(), got.Allocated(), want.Size(), want.Allocated())
	}
	for a := memsim.Addr(0); int(a) < want.Size(); a++ {
		if w, g := want.Load(a), got.Load(a); w != g {
			t.Fatalf("word %d (line %d, word %d of it) is %d, want %d", a, memsim.LineOf(a), memsim.WordInLine(a), g, w)
		}
	}
}

// The linear-time load must leave the heap the session inserts left:
// recovery base images, follower heaps and every seeded run start from
// it. The backend only sees Populate's keys in Populate's order, so this
// also pins highest-key-first and prepend-at-head.
func TestPopulateImageMatchesSessionInserts(t *testing.T) {
	shapes := []struct{ keys, buckets int }{
		{8192, 1024},
		{20000, 100},
		{7, 3},
		{5, 64}, // more buckets than keys: most chains stay empty
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("keys=%d,buckets=%d", sh.keys, sh.buckets), func(t *testing.T) {
			spec := Spec{Keys: sh.keys}
			build := func(populate func(Backend, Spec)) *memsim.Heap {
				heap := memsim.NewHeapLines(HashmapHeapLines(spec, sh.buckets))
				populate(NewHashmapBackend(heap, sh.buckets), spec)
				return heap
			}
			sameImage(t, build(referencePopulate), build(Populate))
		})
	}
}

// Populate must take the Loader when a backend offers one: the chain
// walk it saves is the whole point. (TestPopulate covers the session
// path, on the B+tree.)
func TestPopulatePrefersLoader(t *testing.T) {
	spec := Spec{Keys: 64}
	heap := memsim.NewHeapLines(HashmapHeapLines(spec, 4))
	b := &countingLoader{HashmapBackend: NewHashmapBackend(heap, 4)}
	Populate(b, spec)
	if b.loads != spec.Keys || b.sessions != 0 {
		t.Fatalf("Populate made %d loads and %d sessions on a Loader backend, want %d and 0", b.loads, b.sessions, spec.Keys)
	}
}

type countingLoader struct {
	*HashmapBackend
	loads, sessions int
}

func (c *countingLoader) Load(key, value uint64) {
	c.loads++
	c.HashmapBackend.Load(key, value)
}

func (c *countingLoader) NewSession() Session {
	c.sessions++
	return c.HashmapBackend.NewSession()
}
