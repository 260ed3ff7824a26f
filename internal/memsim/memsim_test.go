package memsim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestLineGeometry(t *testing.T) {
	if WordsPerLine != 16 {
		t.Fatalf("WordsPerLine = %d, want 16 (128B lines of 8B words)", WordsPerLine)
	}
	if LineOf(0) != 0 || LineOf(15) != 0 || LineOf(16) != 1 {
		t.Fatal("LineOf boundary behaviour wrong")
	}
	if WordInLine(0) != 0 || WordInLine(15) != 15 || WordInLine(16) != 0 {
		t.Fatal("WordInLine boundary behaviour wrong")
	}
	if Line(3).FirstAddr() != 48 {
		t.Fatalf("Line(3).FirstAddr() = %d, want 48", Line(3).FirstAddr())
	}
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		a    Addr
		n    int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 16, 1},
		{0, 17, 2},
		{15, 1, 1},
		{15, 2, 2},
		{16, 16, 1},
		{8, 32, 3},
	}
	for _, c := range cases {
		if got := LinesSpanned(c.a, c.n); got != c.want {
			t.Errorf("LinesSpanned(%d, %d) = %d, want %d", c.a, c.n, got, c.want)
		}
	}
}

// Property: LineOf and WordInLine are a bijection with the address.
func TestLineDecompositionProperty(t *testing.T) {
	f := func(aRaw uint32) bool {
		a := Addr(aRaw)
		return Addr(LineOf(a))*WordsPerLine+Addr(WordInLine(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeapNullSentinel(t *testing.T) {
	h := NewHeap(1024)
	a := h.Alloc(1)
	if a == 0 {
		t.Fatal("first allocation returned Addr 0; 0 must stay reserved as nil")
	}
}

func TestHeapLoadStore(t *testing.T) {
	h := NewHeap(1024)
	a := h.Alloc(4)
	h.Store(a+2, 0xdeadbeef)
	if got := h.Load(a + 2); got != 0xdeadbeef {
		t.Fatalf("Load = %#x, want 0xdeadbeef", got)
	}
	if got := h.Load(a); got != 0 {
		t.Fatalf("fresh word = %#x, want 0", got)
	}
}

func TestAllocLineAlignment(t *testing.T) {
	h := NewHeap(4096)
	h.Alloc(3) // misalign the bump pointer
	for i := 0; i < 10; i++ {
		a := h.AllocLine()
		if WordInLine(a) != 0 {
			t.Fatalf("AllocLine returned unaligned address %d", a)
		}
		if LinesSpanned(a, WordsPerLine) != 1 {
			t.Fatalf("AllocLine block spans %d lines", LinesSpanned(a, WordsPerLine))
		}
	}
}

func TestAllocLinesContiguous(t *testing.T) {
	h := NewHeap(4096)
	a := h.AllocLines(3)
	if WordInLine(a) != 0 {
		t.Fatalf("AllocLines returned unaligned address %d", a)
	}
	if got := LinesSpanned(a, 3*WordsPerLine); got != 3 {
		t.Fatalf("AllocLines(3) spans %d lines, want 3", got)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	h := NewHeap(1 << 16)
	const goroutines = 8
	const perG = 200
	var mu sync.Mutex
	seen := make(map[Addr]int)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				size := 1 + (g+i)%7
				a := h.Alloc(size)
				mu.Lock()
				for w := 0; w < size; w++ {
					if prev, dup := seen[a+Addr(w)]; dup {
						t.Errorf("word %d allocated twice (goroutines %d and %d)", a+Addr(w), prev, g)
					}
					seen[a+Addr(w)] = g
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

func TestHeapExhaustionPanics(t *testing.T) {
	h := NewHeap(32)
	defer func() {
		if recover() == nil {
			t.Fatal("allocating past capacity did not panic")
		}
	}()
	h.Alloc(64)
}

func TestAllocAlignedValidation(t *testing.T) {
	h := NewHeap(64)
	for _, tc := range []struct{ size, align int }{{0, 1}, {-1, 1}, {1, 0}, {1, 3}, {1, -4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AllocAligned(%d,%d) did not panic", tc.size, tc.align)
				}
			}()
			h.AllocAligned(tc.size, tc.align)
		}()
	}
}

func TestZero(t *testing.T) {
	h := NewHeap(256)
	a := h.Alloc(8)
	for i := 0; i < 8; i++ {
		h.Store(a+Addr(i), uint64(i+1))
	}
	h.Zero(a, 8)
	for i := 0; i < 8; i++ {
		if h.Load(a+Addr(i)) != 0 {
			t.Fatalf("word %d not zeroed", i)
		}
	}
}

func TestNewHeapLines(t *testing.T) {
	h := NewHeapLines(4)
	if h.Size() != 4*WordsPerLine {
		t.Fatalf("Size = %d, want %d", h.Size(), 4*WordsPerLine)
	}
}

func TestNewHeapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHeap(0) did not panic")
		}
	}()
	NewHeap(0)
}

// Equal images digest alike; one word or the watermark apart, they do
// not.
func TestDigest(t *testing.T) {
	build := func() *Heap {
		h := NewHeapLines(8)
		a := h.AllocLine()
		h.Store(a+3, 42)
		return h
	}
	want := build().Digest()
	if got := build().Digest(); got != want {
		t.Fatalf("two equal builds digest %s and %s", want, got)
	}
	word := build()
	word.Store(40, 1)
	bump := build()
	bump.AllocLine()
	for name, h := range map[string]*Heap{"one word": word, "the watermark": bump} {
		if h.Digest() == want {
			t.Errorf("heaps %s apart share digest %s", name, want)
		}
	}
}
