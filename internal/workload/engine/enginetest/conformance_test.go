package enginetest

import (
	"path/filepath"
	"testing"

	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
)

// heapFor sizes a heap generously for the suite's churn (double
// keyspace plus pools).
func heapFor(keys int, buckets int) *memsim.Heap {
	lines := buckets + 8*keys + 1<<13
	return memsim.NewHeapLines(lines)
}

func newInstance(t *testing.T, b engine.Backend, heap *memsim.Heap, threads int) Instance {
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	return Instance{Backend: b, Heap: heap, Machine: m, Sys: sys, Cleanup: func() {}}
}

func hashmapMaker(t *testing.T, keys, threads int) Instance {
	buckets := keys / 8
	if buckets < 1 {
		buckets = 1
	}
	heap := heapFor(keys, buckets)
	return newInstance(t, engine.NewHashmapBackend(heap, buckets), heap, threads)
}

func btreeMaker(t *testing.T, keys, threads int) Instance {
	heap := heapFor(keys, 0)
	return newInstance(t, engine.NewBTreeBackend(heap), heap, threads)
}

// durableMaker decorates an inner maker with a real store (log on
// disk, group-commit daemon running) and attaches it to the machine and
// system, so the conformance suite exercises the full durable write
// path.
func durableMaker(inner Maker) Maker {
	return func(t *testing.T, keys, threads int) Instance {
		in := inner(t, keys, threads)
		store, err := durable.Open(in.Heap, filepath.Join(t.TempDir(), "wal.log"),
			in.Machine.Topology().MaxThreads(), durable.Config{})
		if err != nil {
			t.Fatal(err)
		}
		in.Backend = engine.NewDurableBackend(in.Backend, store)
		in.Sys = store.Attach(in.Sys, in.Machine)
		prev := in.Cleanup
		in.Cleanup = func() {
			if err := store.Close(); err != nil {
				t.Errorf("store close: %v", err)
			}
			prev()
		}
		return in
	}
}

func TestHashmapConformance(t *testing.T) { Run(t, "hashmap", hashmapMaker) }

func TestBTreeConformance(t *testing.T) { Run(t, "btree", btreeMaker) }

func TestDurableHashmapConformance(t *testing.T) {
	Run(t, "durable-hashmap", durableMaker(hashmapMaker))
}

func TestDurableBTreeConformance(t *testing.T) {
	Run(t, "durable-btree", durableMaker(btreeMaker))
}

// TestDurableBackendIdentity pins the wrapper's surface: name prefix,
// unwrap, store accessor.
func TestDurableBackendIdentity(t *testing.T) {
	in := durableMaker(hashmapMaker)(t, 16, 1)
	defer in.Cleanup()
	db, ok := in.Backend.(*engine.DurableBackend)
	if !ok {
		t.Fatalf("maker produced %T, want *engine.DurableBackend", in.Backend)
	}
	if db.Name() != "durable-hashmap" {
		t.Errorf("Name() = %q", db.Name())
	}
	if _, ok := db.Unwrap().(*engine.HashmapBackend); !ok {
		t.Errorf("Unwrap() = %T, want *engine.HashmapBackend", db.Unwrap())
	}
	if db.Store() == nil {
		t.Error("Store() = nil")
	}
}
