package enginetest

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sihtm/internal/durable"
	"sihtm/internal/experiments"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/rng"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
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

// TestOneBucketChurn is ConcurrentDriver's one-bucket variant, on every
// system: two threads churn the eight keys of one hash chain with
// read-modify-writes, deletes and re-inserts. A node one thread's
// Delete frees goes back to that thread's pool and is relinked under
// another key, while the other thread may hold a Read's memo of it.
// Each transaction's change to the sum of all values is known, so the
// final sum is the model; the chain must also hold each key once.
func TestOneBucketChurn(t *testing.T) {
	const keys, threads, perThread = 8, 2, 1000
	for _, name := range []string{"si-htm", "htm", "p8tm", "silo", "sgl"} {
		t.Run(name, func(t *testing.T) {
			heap := heapFor(keys, 1)
			b := engine.NewHashmapBackend(heap, 1)
			m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
			s, err := experiments.NewSystem(name, m, heap, threads)
			if err != nil {
				t.Fatal(err)
			}
			engine.Populate(b, spec(keys))
			var want uint64
			for k := uint64(0); k < keys; k++ {
				want += engine.InitialValue(k)
			}

			sums := make([]uint64, threads) // each thread's net change, mod 2^64
			var wg sync.WaitGroup
			for th := range threads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := b.NewSession()
					r := rng.Stream(1, uint64(th))
					for range perThread {
						k, other, op := uint64(r.Intn(keys)), uint64(r.Intn(keys)), r.Intn(3)
						var d uint64
						var disagree bool // an attempt's view; Silo's doomed ones may be torn
						sess.Prepare(1)
						s.Atomic(th, tm.KindUpdate, func(ops tm.Ops) {
							sess.Reset()
							v, ok := sess.Read(ops, k)
							switch op {
							case 0: // read-modify-write on the memo; links a node if k is absent
								sess.Insert(ops, k, v+1)
								d = 1
							case 1: // delete, freeing the node for this thread's next insert
								disagree = sess.Delete(ops, k) != ok
								d = -v
							case 2: // a Read of another key drops the memo
								sess.Read(ops, other)
								sess.Insert(ops, k, v+1)
								d = 1
							}
						})
						sess.Commit()
						if disagree {
							t.Errorf("committed Delete(%d) disagrees with the Read before it", k)
						}
						sums[th] += d
					}
				}()
			}
			wg.Wait()

			for _, d := range sums {
				want += d
			}
			got, ops := uint64(0), b.Direct()
			chain := b.Map().Keys()
			for _, k := range chain {
				v, _ := b.Map().Lookup(ops, k)
				got += v
			}
			slices.Sort(chain)
			if len(chain) > keys || len(slices.Compact(chain)) != len(chain) || (len(chain) > 0 && chain[len(chain)-1] >= keys) {
				t.Errorf("chain holds keys %v, want each of [0, %d) at most once", chain, keys)
			}
			if got != want {
				t.Errorf("values sum to %d, the committed transactions to %d", got, want)
			}
			if err := b.Check(); err != nil {
				t.Error(err)
			}
			if !m.DirectoryQuiescent() {
				t.Error("directory not quiescent after the churn")
			}
		})
	}
}
