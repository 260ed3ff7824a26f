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

// The address → slot map is one to one from [0, Size()) into the slice,
// and pins the banked layout: the low half-line of line l at 8l, its
// high half at H+8l. A size that ends inside a line leaves exactly that
// line's slack slots unused.
func TestSlotIsABijection(t *testing.T) {
	for _, words := range []int{1, 8, 9, 16, 17, 100, 1024, 1029} {
		h := NewHeap(words)
		lines := (words + WordsPerLine - 1) / WordsPerLine
		if len(h.words) != lines*WordsPerLine || h.half != uint64(lines*8) {
			t.Fatalf("NewHeap(%d): %d host words, bank of %d; want %d and %d", words, len(h.words), h.half, lines*WordsPerLine, lines*8)
		}
		seen := make(map[uint64]Addr)
		for a := Addr(0); a < Addr(h.Size()); a++ {
			s := h.slot(a)
			l, w := uint64(LineOf(a)), uint64(WordInLine(a))
			if want := w/8*h.half + 8*l + w%8; s != want {
				t.Fatalf("NewHeap(%d): slot(%d) = %d, want %d (line %d word %d)", words, a, s, want, l, w)
			}
			if s >= uint64(len(h.words)) {
				t.Fatalf("NewHeap(%d): slot(%d) = %d past %d host words", words, a, s, len(h.words))
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("NewHeap(%d): addresses %d and %d share slot %d", words, prev, a, s)
			}
			seen[s] = a
		}
		if unused := len(h.words) - len(seen); unused != lines*WordsPerLine-words {
			t.Fatalf("NewHeap(%d): %d slots unused, want the last line's %d-word slack", words, unused, lines*WordsPerLine-words)
		}
		// Every word round-trips through Store and Load, and lands in
		// the slot the map names.
		for a := Addr(0); a < Addr(h.Size()); a++ {
			h.Store(a, uint64(a)+1)
		}
		for a := Addr(0); a < Addr(h.Size()); a++ {
			if got := h.Load(a); got != uint64(a)+1 || h.words[h.slot(a)] != uint64(a)+1 {
				t.Fatalf("NewHeap(%d): word %d reads %d, want %d", words, a, got, uint64(a)+1)
			}
		}
	}
}

// Load, Store and CompareAndSwap panic at Size(), inside the slack of a
// last line that Size() ends inside, and far past the heap.
func TestAccessOutsideHeapPanics(t *testing.T) {
	for _, words := range []int{17, 32, 1029} {
		h := NewHeap(words)
		end := Addr(len(h.words)) // past the last line's slack
		bad := []Addr{end, end + 1, end + WordsPerLine, 1 << 40}
		for a := Addr(words); a < end; a++ {
			bad = append(bad, a)
		}
		for _, a := range bad {
			for name, access := range map[string]func(){
				"Load":           func() { h.Load(a) },
				"Store":          func() { h.Store(a, 1) },
				"CompareAndSwap": func() { h.CompareAndSwap(a, 0, 1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("NewHeap(%d): %s(%d) did not panic", words, name, a)
						}
					}()
					access()
				}()
			}
		}
	}
}
