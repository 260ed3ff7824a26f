// Package hashmap implements the paper's §4.1 micro-benchmark: a
// transactional chained hash map over the simulated heap, with the two
// knobs the paper sweeps — transaction footprint (average chain length:
// ~200 nodes for the "large" mode, ~50 for the "short" mode) and
// contention (1000 buckets for low contention, 10 for high).
//
// Memory layout matches the footprint accounting the paper relies on:
// every chain node occupies exactly one cache line, so traversing a chain
// of n nodes reads n lines; bucket heads are padded to one line each so
// that only same-bucket operations contend.
package hashmap

import (
	"fmt"

	"sihtm/internal/memsim"
	"sihtm/internal/rng"
	"sihtm/internal/tm"
)

// Node layout (one cache line): word 0 = key, word 1 = value, word 2 =
// next-node address (0 = end of chain).
const (
	nodeKey   = 0
	nodeValue = 1
	nodeNext  = 2
)

// Map is a fixed-bucket transactional hash map. The structure itself
// (bucket array) is immutable after New; all key/value/chain state lives
// in the heap and is accessed through tm.Ops.
type Map struct {
	heap    *memsim.Heap
	buckets []memsim.Addr // head-pointer word of each bucket, one line per bucket
}

// New creates a map with the given bucket count.
func New(heap *memsim.Heap, buckets int) *Map {
	if buckets <= 0 {
		panic(fmt.Sprintf("hashmap: bucket count must be positive, got %d", buckets))
	}
	m := &Map{heap: heap, buckets: make([]memsim.Addr, buckets)}
	for i := range m.buckets {
		m.buckets[i] = heap.AllocLine()
	}
	return m
}

// Buckets returns the bucket count.
func (m *Map) Buckets() int { return len(m.buckets) }

// bucketOf hashes a key to its bucket head address.
func (m *Map) bucketOf(key uint64) memsim.Addr {
	// Fibonacci scrambling so sequential keys spread across buckets.
	h := key * 0x9e3779b97f4a7c15
	return m.buckets[h%uint64(len(m.buckets))]
}

// Lookup returns the value stored under key.
func (m *Map) Lookup(ops tm.Ops, key uint64) (uint64, bool) {
	node := memsim.Addr(ops.Read(m.bucketOf(key)))
	for node != 0 {
		if ops.Read(node+nodeKey) == key {
			return ops.Read(node + nodeValue), true
		}
		node = memsim.Addr(ops.Read(node + nodeNext))
	}
	return 0, false
}

// Insert stores value under key, using freeNode (a line-aligned spare
// node) if the key is absent. It reports whether freeNode was consumed;
// if the key already existed only its value is updated. freeNode must be
// allocated outside the transaction so the body stays idempotent.
func (m *Map) Insert(ops tm.Ops, key, value uint64, freeNode memsim.Addr) bool {
	head := m.bucketOf(key)
	node := memsim.Addr(ops.Read(head))
	for node != 0 {
		if ops.Read(node+nodeKey) == key {
			ops.Write(node+nodeValue, value)
			return false
		}
		node = memsim.Addr(ops.Read(node + nodeNext))
	}
	ops.Write(freeNode+nodeKey, key)
	ops.Write(freeNode+nodeValue, value)
	ops.Write(freeNode+nodeNext, ops.Read(head))
	ops.Write(head, uint64(freeNode))
	return true
}

// Prepend links node (a fresh line-aligned node) at the head of key's
// chain with plain heap stores. Quiescent loading only: the caller
// guarantees key is absent, so no chain is walked and building a map is
// linear in its keys.
func (m *Map) Prepend(key, value uint64, node memsim.Addr) {
	head := m.bucketOf(key)
	m.heap.Store(node+nodeKey, key)
	m.heap.Store(node+nodeValue, value)
	m.heap.Store(node+nodeNext, m.heap.Load(head))
	m.heap.Store(head, uint64(node))
}

// Remove deletes key, returning the unlinked node's address (0 if the key
// was absent). The caller may recycle the node after the transaction
// commits.
//
// Remove promotes its read of the victim node (a same-value write of the
// victim's next pointer) — the paper's §2.1 read-promotion fix. Without
// it, two concurrent removes of adjacent nodes form a write skew that
// snapshot isolation admits: each unlink lands on a node the other just
// detached, leaving one victim still reachable, which corrupts the chain
// once the "removed" node is recycled. The promotion turns that skew into
// a write-write conflict on the victim's cache line, which SI must abort.
// This is what makes the benchmark serializable under SI, as the paper
// requires of its workloads.
func (m *Map) Remove(ops tm.Ops, key uint64) memsim.Addr {
	head := m.bucketOf(key)
	prev := head // prev points at the word holding the current link
	node := memsim.Addr(ops.Read(head))
	for node != 0 {
		next := memsim.Addr(ops.Read(node + nodeNext))
		if ops.Read(node+nodeKey) == key {
			ops.Write(node+nodeNext, uint64(next)) // read promotion (see above)
			if prev == head {
				ops.Write(head, uint64(next))
			} else {
				ops.Write(prev+nodeNext, uint64(next))
			}
			return node
		}
		prev = node
		node = next
	}
	return 0
}

// Size counts all elements non-transactionally (setup/verification only).
func (m *Map) Size() int {
	n := 0
	for _, head := range m.buckets {
		node := memsim.Addr(m.heap.Load(head))
		for node != 0 {
			n++
			node = memsim.Addr(m.heap.Load(node + nodeNext))
		}
	}
	return n
}

// Keys returns all stored keys non-transactionally (verification only).
func (m *Map) Keys() []uint64 {
	keys, _ := m.WalkBounded(-1)
	return keys
}

// WalkBounded collects all keys, giving up after maxSteps chain hops
// (maxSteps < 0 means unbounded). ok is false if a chain did not
// terminate within the bound — i.e. the structure contains a cycle.
// Verification helper; non-transactional.
func (m *Map) WalkBounded(maxSteps int) (keys []uint64, ok bool) {
	steps := 0
	for _, head := range m.buckets {
		node := memsim.Addr(m.heap.Load(head))
		for node != 0 {
			if maxSteps >= 0 && steps >= maxSteps {
				return keys, false
			}
			steps++
			keys = append(keys, m.heap.Load(node+nodeKey))
			node = memsim.Addr(m.heap.Load(node + nodeNext))
		}
	}
	return keys, true
}

// Benchmark is the paper's workload driver around Map: a configurable mix
// of lookups (read-only transactions) and insert/remove pairs (update
// transactions) over a key space sized so chains keep their configured
// average length.
type Benchmark struct {
	Map *Map
	cfg BenchConfig
}

// BenchConfig parameterises the benchmark.
type BenchConfig struct {
	// Buckets is the bucket count: 1000 in the paper's low-contention
	// runs, 10 in the high-contention runs.
	Buckets int
	// ElementsPerBucket is the average chain length: ≈200 ("large
	// transaction footprint") or ≈50 ("short").
	ElementsPerBucket int
	// ReadOnlyPercent is the share of lookup transactions: 90 or 50.
	ReadOnlyPercent int
	// Seed derives every worker's per-thread op stream (rng.Stream);
	// the initial population is deterministic regardless (even keys
	// present, odd keys absent).
	Seed uint64
}

// Validate checks the configuration.
func (c BenchConfig) Validate() error {
	if c.Buckets <= 0 || c.ElementsPerBucket <= 0 {
		return fmt.Errorf("hashmap: buckets and elements must be positive (%d, %d)",
			c.Buckets, c.ElementsPerBucket)
	}
	if c.ReadOnlyPercent < 0 || c.ReadOnlyPercent > 100 {
		return fmt.Errorf("hashmap: read-only percent %d out of range", c.ReadOnlyPercent)
	}
	return nil
}

// KeySpace is the range keys are drawn from: twice the initial population
// so half the lookups miss (and traverse the full chain — the worst-case
// footprint) and inserts/removes keep the size in steady state.
func (c BenchConfig) KeySpace() uint64 {
	return 2 * uint64(c.Buckets) * uint64(c.ElementsPerBucket)
}

// HeapLinesNeeded estimates the heap the benchmark needs: bucket heads,
// initial nodes, plus slack for transient inserts.
func (c BenchConfig) HeapLinesNeeded() int {
	initial := c.Buckets * c.ElementsPerBucket
	return c.Buckets + 2*initial + 4096
}

// NewBenchmark builds the map and populates every other key of the key
// space (so average chain length equals ElementsPerBucket).
func NewBenchmark(heap *memsim.Heap, cfg BenchConfig) (*Benchmark, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := New(heap, cfg.Buckets)
	b := &Benchmark{Map: m, cfg: cfg}
	// Populate non-transactionally: even keys present, odd keys absent.
	space := cfg.KeySpace()
	for key := uint64(0); key < space; key += 2 {
		m.Prepend(key, key*10, heap.AllocLine())
	}
	return b, nil
}

// Config returns the benchmark configuration.
func (b *Benchmark) Config() BenchConfig { return b.cfg }

// Worker is one thread's benchmark state.
type Worker struct {
	b          *Benchmark
	sys        tm.System
	thread     int
	r          *rng.Rand
	spare      memsim.Addr // pre-allocated node for the next insert
	lastInsert uint64      // key of the last insert, removed next
	haveInsert bool
}

// NewWorker creates the per-thread driver. Its generator is thread's
// stream of the benchmark seed (rng.Stream), so one BenchConfig.Seed
// reproduces every worker's key/op sequence — the same derivation
// every workload in the repository uses.
func (b *Benchmark) NewWorker(sys tm.System, thread int) *Worker {
	return &Worker{b: b, sys: sys, thread: thread, r: rng.Stream(b.cfg.Seed, uint64(thread))}
}

// Op runs exactly one transaction of the configured mix: a lookup with
// probability ReadOnlyPercent, otherwise an insert — or, following the
// paper, a remove if this thread's previous update was an insert.
func (w *Worker) Op() {
	m := w.b.Map
	if w.r.Intn(100) < w.b.cfg.ReadOnlyPercent {
		key := w.r.Uint64() % w.b.cfg.KeySpace()
		w.sys.Atomic(w.thread, tm.KindReadOnly, func(ops tm.Ops) {
			m.Lookup(ops, key)
		})
		return
	}
	if w.haveInsert {
		key := w.lastInsert
		var removed memsim.Addr
		w.sys.Atomic(w.thread, tm.KindUpdate, func(ops tm.Ops) {
			removed = m.Remove(ops, key)
		})
		if removed != 0 && w.spare == 0 {
			w.spare = removed // recycle after commit
		}
		w.haveInsert = false
		return
	}
	key := w.r.Uint64() % w.b.cfg.KeySpace()
	if w.spare == 0 {
		w.spare = w.b.Map.heap.AllocLine()
	}
	spare := w.spare
	consumed := false
	w.sys.Atomic(w.thread, tm.KindUpdate, func(ops tm.Ops) {
		consumed = m.Insert(ops, key, key*10, spare)
	})
	if consumed {
		w.spare = 0
		// Only a real insertion schedules the paired remove; an update of
		// an existing key must not drain the pre-populated map.
		w.lastInsert = key
		w.haveInsert = true
	}
}
