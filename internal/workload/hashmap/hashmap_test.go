package hashmap_test

import (
	"sync"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/tmtest"
	"sihtm/internal/topology"
	"sihtm/internal/workload/hashmap"
)

// plainOps runs map operations without a transaction (single-threaded
// tests).
type plainOps struct{ heap *memsim.Heap }

func (o plainOps) Read(a memsim.Addr) uint64     { return o.heap.Load(a) }
func (o plainOps) Write(a memsim.Addr, v uint64) { o.heap.Store(a, v) }

func TestBasicOperations(t *testing.T) {
	heap := memsim.NewHeapLines(1 << 10)
	m := hashmap.New(heap, 8)
	ops := plainOps{heap}

	if _, ok := m.Lookup(ops, 1); ok {
		t.Fatal("lookup in empty map succeeded")
	}
	n1 := heap.AllocLine()
	if !m.Insert(ops, 1, 10, n1) {
		t.Fatal("insert of fresh key did not consume the node")
	}
	if v, ok := m.Lookup(ops, 1); !ok || v != 10 {
		t.Fatalf("lookup(1) = %d,%v", v, ok)
	}
	// Updating an existing key must not consume the spare node.
	n2 := heap.AllocLine()
	if m.Insert(ops, 1, 11, n2) {
		t.Fatal("insert of existing key consumed the node")
	}
	if v, _ := m.Lookup(ops, 1); v != 11 {
		t.Fatalf("value after update = %d", v)
	}
	if m.Size() != 1 {
		t.Fatalf("size = %d, want 1", m.Size())
	}
	if got := m.Remove(ops, 1); got != n1 {
		t.Fatalf("remove returned %d, want node %d", got, n1)
	}
	if _, ok := m.Lookup(ops, 1); ok {
		t.Fatal("lookup after remove succeeded")
	}
	if m.Remove(ops, 1) != 0 {
		t.Fatal("second remove found something")
	}
}

func TestChainOperations(t *testing.T) {
	heap := memsim.NewHeapLines(1 << 12)
	m := hashmap.New(heap, 1) // single bucket: everything chains
	ops := plainOps{heap}
	const n = 50
	for k := uint64(0); k < n; k++ {
		m.Insert(ops, k, k, heap.AllocLine())
	}
	if m.Size() != n {
		t.Fatalf("size = %d, want %d", m.Size(), n)
	}
	// Remove from middle, head and tail of the chain.
	for _, k := range []uint64{25, 0, n - 1} {
		if m.Remove(ops, k) == 0 {
			t.Fatalf("remove(%d) missed", k)
		}
	}
	if m.Size() != n-3 {
		t.Fatalf("size = %d, want %d", m.Size(), n-3)
	}
	for k := uint64(0); k < n; k++ {
		_, ok := m.Lookup(ops, k)
		wantPresent := k != 25 && k != 0 && k != n-1
		if ok != wantPresent {
			t.Fatalf("lookup(%d) = %v, want %v", k, ok, wantPresent)
		}
	}
}

func TestBenchmarkPopulation(t *testing.T) {
	cfg := hashmap.BenchConfig{Buckets: 16, ElementsPerBucket: 10, ReadOnlyPercent: 90}
	heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	b, err := hashmap.NewBenchmark(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := int(cfg.KeySpace() / 2)
	if got := b.Map.Size(); got != wantSize {
		t.Fatalf("initial size = %d, want %d", got, wantSize)
	}
	// Even keys present, odd keys absent.
	ops := plainOps{heap}
	for key := uint64(0); key < 20; key++ {
		_, ok := b.Map.Lookup(ops, key)
		if ok != (key%2 == 0) {
			t.Fatalf("lookup(%d) = %v", key, ok)
		}
	}
}

// NewBenchmark bulk-loads through Map.Load. The reference is a
// transactional Insert of each (absent) even key into a fresh node: the
// load must leave that image up to node placement, with every chain on
// consecutive lines in chain order, and two loads must leave the same
// image word for word.
func TestBenchmarkImageMatchesInserts(t *testing.T) {
	for _, cfg := range []hashmap.BenchConfig{
		{Buckets: 16, ElementsPerBucket: 10, ReadOnlyPercent: 90},
		{Buckets: 3, ElementsPerBucket: 50, ReadOnlyPercent: 50},
		{Buckets: 64, ElementsPerBucket: 1, ReadOnlyPercent: 90}, // some chains empty
	} {
		build := func() (*memsim.Heap, *hashmap.Map) {
			heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
			b, err := hashmap.NewBenchmark(heap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return heap, b.Map
		}
		heap, got := build()
		wantHeap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
		want := hashmap.New(wantHeap, cfg.Buckets)
		for key := uint64(0); key < cfg.KeySpace(); key += 2 {
			if !want.Insert(plainOps{wantHeap}, key, key*10, wantHeap.AllocLine()) {
				t.Fatalf("reference insert of key %d found it present", key)
			}
		}
		if err := hashmap.SameUpToPlacement(want, got); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for b := 0; b < got.Buckets(); b++ {
			chain := got.Chain(b)
			for i := 1; i < len(chain); i++ {
				if chain[i] != chain[i-1]+memsim.WordsPerLine {
					t.Fatalf("%+v: bucket %d node %d at word %d, not the line after node %d at %d", cfg, b, i, chain[i], i-1, chain[i-1])
				}
			}
		}
		again, _ := build()
		for a := memsim.Addr(0); int(a) < heap.Size(); a++ {
			if w, g := heap.Load(a), again.Load(a); w != g {
				t.Fatalf("%+v: second load differs at word %d: %d, want %d", cfg, a, g, w)
			}
		}
	}
}

func TestBenchConfigValidation(t *testing.T) {
	bad := []hashmap.BenchConfig{
		{Buckets: 0, ElementsPerBucket: 1},
		{Buckets: 1, ElementsPerBucket: 0},
		{Buckets: 1, ElementsPerBucket: 1, ReadOnlyPercent: 101},
		{Buckets: 1, ElementsPerBucket: 1, ReadOnlyPercent: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	heap := memsim.NewHeapLines(64)
	if _, err := hashmap.NewBenchmark(heap, bad[0]); err == nil {
		t.Error("NewBenchmark accepted invalid config")
	}
}

// The workload must keep the map coherent under every system: after a
// concurrent run, every surviving key is found, sizes are sane, and the
// steady-state insert/remove pairing holds approximately.
func TestWorkloadUnderEverySystem(t *testing.T) {
	for _, f := range tmtest.StandardFactories(0) {
		t.Run(f.Name, func(t *testing.T) {
			cfg := hashmap.BenchConfig{Buckets: 8, ElementsPerBucket: 6, ReadOnlyPercent: 50, Seed: 7}
			heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
			b, err := hashmap.NewBenchmark(heap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			initial := b.Map.Size()
			sys := f.New(heap, 4)
			var wg sync.WaitGroup
			for id := 0; id < 4; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					w := b.NewWorker(sys, id)
					for i := 0; i < 300; i++ {
						w.Op()
					}
				}(id)
			}
			wg.Wait()
			// Insert/remove alternate per thread, so the size drifts by at
			// most one pending insert per thread.
			size := b.Map.Size()
			if size < initial-4 || size > initial+4 {
				t.Errorf("size drifted: %d → %d", initial, size)
			}
			// No key duplicated.
			seen := map[uint64]bool{}
			for _, k := range b.Map.Keys() {
				if seen[k] {
					t.Fatalf("duplicate key %d", k)
				}
				seen[k] = true
			}
			s := sys.Collector().Snapshot()
			if s.Commits != 4*300 {
				t.Errorf("commits = %d, want %d", s.Commits, 4*300)
			}
		})
	}
}

// Large read-only lookups under SI-HTM must not abort even with a tiny
// TMCAM, while the same lookups under plain HTM must blow capacity — the
// heart of Figure 6.
func TestLargeLookupCapacityContrast(t *testing.T) {
	cfg := hashmap.BenchConfig{Buckets: 1, ElementsPerBucket: 100, ReadOnlyPercent: 100}
	heap := memsim.NewHeapLines(cfg.HeapLinesNeeded())
	b, err := hashmap.NewBenchmark(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(2, 1), TMCAMLines: 64})
	missKey := uint64(1) // odd → absent → full-chain traversal (100 lines)

	si := sihtm.NewSystem(m, 1, sihtm.Config{})
	si.Atomic(0, tm.KindReadOnly, func(ops tm.Ops) {
		if _, ok := b.Map.Lookup(ops, missKey); ok {
			t.Fatal("missing key found")
		}
	})
	if s := si.Collector().Snapshot(); s.TotalAborts() != 0 {
		t.Errorf("SI-HTM large lookup aborted %d times", s.TotalAborts())
	}

	htmSys := htmtm.NewSystem(m, 2, htmtm.Config{Retries: 3})
	htmSys.Atomic(1, tm.KindReadOnly, func(ops tm.Ops) {
		b.Map.Lookup(ops, missKey)
	})
	if s := htmSys.Collector().Snapshot(); s.Fallbacks != 1 {
		t.Errorf("plain HTM large lookup fallbacks = %d, want 1 (capacity)", s.Fallbacks)
	}
}
