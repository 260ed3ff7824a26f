package engine

import (
	"fmt"
	"testing"

	"sihtm/internal/memsim"
	"sihtm/internal/workload/hashmap"
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

// The linear-time load must leave the image the session inserts left,
// up to where the chain nodes sit: the same chains holding the same keys
// in the same order, and as many words allocated. The backend only sees
// Populate's key count, so this also pins highest-key-first and
// prepend-at-head. Each chain must sit on consecutive lines in chain
// order, which is the point of the load. And two loads must leave the
// same image word for word: recovery base images and follower heaps are
// rebuilt, not copied.
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
			build := func(populate func(Backend, Spec)) (*memsim.Heap, *hashmap.Map) {
				heap := memsim.NewHeapLines(HashmapHeapLines(spec, sh.buckets))
				b := NewHashmapBackend(heap, sh.buckets)
				populate(b, spec)
				return heap, b.Map()
			}
			_, want := build(referencePopulate)
			heap, got := build(Populate)
			if err := hashmap.SameUpToPlacement(want, got); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < got.Buckets(); b++ {
				chain := got.Chain(b)
				for i := 1; i < len(chain); i++ {
					if chain[i] != chain[i-1]+memsim.WordsPerLine {
						t.Fatalf("bucket %d node %d at word %d, not the line after node %d at %d", b, i, chain[i], i-1, chain[i-1])
					}
				}
			}
			again, _ := build(Populate)
			sameImage(t, heap, again)
		})
	}
}

// Populate must hand a Loader backend the key count once and open no
// session: the per-key path is what the Loader replaces. (TestPopulate
// covers the session path, on the B+tree.)
func TestPopulatePrefersLoader(t *testing.T) {
	spec := Spec{Keys: 64}
	heap := memsim.NewHeapLines(HashmapHeapLines(spec, 4))
	b := &countingLoader{HashmapBackend: NewHashmapBackend(heap, 4)}
	Populate(b, spec)
	if len(b.loads) != 1 || b.loads[0] != spec.Keys || b.sessions != 0 {
		t.Fatalf("Populate made loads %v and %d sessions on a Loader backend, want [%d] and 0", b.loads, b.sessions, spec.Keys)
	}
}

type countingLoader struct {
	*HashmapBackend
	loads    []int
	sessions int
}

func (c *countingLoader) Load(keys int) {
	c.loads = append(c.loads, keys)
	c.HashmapBackend.Load(keys)
}

func (c *countingLoader) NewSession() Session {
	c.sessions++
	return c.HashmapBackend.NewSession()
}
