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
//
// Where the nodes sit is the simulator's business, not the paper's: a
// bulk-loaded map (Load, NewBenchmark) lays each chain on consecutive
// lines in chain order, and memsim keeps the low half of consecutive
// lines — words 0–7, where a node's key, value and link live — on
// consecutive 64-byte host lines. Walking a chain therefore costs the
// host sequential loads over packed memory rather than a cache miss per
// node. The lines a transaction touches, and so every footprint,
// capacity and conflict count, are the ones a map built by inserts
// would give.
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
func (m *Map) bucketOf(key uint64) memsim.Addr { return m.buckets[m.bucket(key)] }

// bucket hashes a key to its bucket index.
func (m *Map) bucket(key uint64) int {
	// Fibonacci scrambling so sequential keys spread across buckets.
	h := key * 0x9e3779b97f4a7c15
	return int(h % uint64(len(m.buckets)))
}

// walk returns the address of key's node, or 0 if key is absent: the
// bucket head, then each node's key word, and its next word if the key
// differs.
func (m *Map) walk(ops tm.Ops, key uint64) memsim.Addr {
	node := memsim.Addr(ops.Read(m.bucketOf(key)))
	for node != 0 && ops.Read(node+nodeKey) != key {
		node = memsim.Addr(ops.Read(node + nodeNext))
	}
	return node
}

// Find returns key's node and the value it holds, or node 0 if key is
// absent. A caller that keeps the node may Set its value later in the
// same transaction without walking the chain again.
func (m *Map) Find(ops tm.Ops, key uint64) (node memsim.Addr, value uint64) {
	if node = m.walk(ops, key); node != 0 {
		value = ops.Read(node + nodeValue)
	}
	return node, value
}

// Set writes value into node, a node Find returned in this transaction.
func (m *Map) Set(ops tm.Ops, node memsim.Addr, value uint64) {
	ops.Write(node+nodeValue, value)
}

// Lookup returns the value stored under key.
func (m *Map) Lookup(ops tm.Ops, key uint64) (uint64, bool) {
	node, value := m.Find(ops, key)
	return value, node != 0
}

// Insert stores value under key, using freeNode (a line-aligned spare
// node) if the key is absent. It reports whether freeNode was consumed;
// if the key already existed only its value is updated. freeNode must be
// allocated outside the transaction so the body stays idempotent.
func (m *Map) Insert(ops tm.Ops, key, value uint64, freeNode memsim.Addr) bool {
	if node := m.walk(ops, key); node != 0 {
		m.Set(ops, node, value)
		return false
	}
	head := m.bucketOf(key)
	ops.Write(freeNode+nodeKey, key)
	ops.Write(freeNode+nodeValue, value)
	ops.Write(freeNode+nodeNext, ops.Read(head))
	ops.Write(head, uint64(freeNode))
	return true
}

// Load fills an empty map with n distinct keys using plain heap stores:
// key(0), ..., key(n-1) in the order successive prepends would link
// them (each at its chain's head), each holding value(key). Every chain
// ends up with the keys, in the order, the prepends would leave.
//
// Only the placement differs: Load counting-sorts the keys by bucket,
// takes the n node lines with one AllocLines and writes them in address
// order, chain by chain in bucket order, each chain head first on
// consecutive lines. A lookup then walks memory in address order instead
// of hopping across the heap. The load is linear in n; its scratch (one
// int per bucket, one word per key) is garbage when it returns.
// Quiescent loading only.
func (m *Map) Load(n int, key func(i int) uint64, value func(key uint64) uint64) {
	for _, head := range m.buckets {
		if m.heap.Load(head) != 0 {
			panic("hashmap: Load into a non-empty map")
		}
	}
	if n == 0 {
		return
	}
	// Counting sort: at[b] counts bucket b's keys, then (prefix sums)
	// marks where its chain ends. Dealing the keys in prepend order from
	// each chain's end backwards puts the last prepend, the head, first
	// and leaves at[b] where the chain starts; at[len(buckets)] stays n.
	at := make([]int, len(m.buckets)+1)
	for i := 0; i < n; i++ {
		at[m.bucket(key(i))]++
	}
	for b := 1; b < len(at); b++ {
		at[b] += at[b-1]
	}
	chained := make([]uint64, n)
	for i := 0; i < n; i++ {
		k := key(i)
		b := m.bucket(k)
		at[b]--
		chained[at[b]] = k
	}
	base := m.heap.AllocLines(n)
	line := func(j int) memsim.Addr { return base + memsim.Addr(j*memsim.WordsPerLine) }
	for b, head := range m.buckets {
		first, end := at[b], at[b+1]
		if first == end {
			continue
		}
		m.heap.Store(head, uint64(line(first)))
		for j := first; j < end; j++ {
			next := line(j + 1)
			if j+1 == end {
				next = 0
			}
			node := line(j)
			m.heap.Store(node+nodeKey, chained[j])
			m.heap.Store(node+nodeValue, value(chained[j]))
			m.heap.Store(node+nodeNext, uint64(next))
		}
	}
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

// Chain returns the node addresses of bucket b's chain, head first.
// Verification helper; non-transactional.
func (m *Map) Chain(b int) []memsim.Addr {
	var nodes []memsim.Addr
	for node := memsim.Addr(m.heap.Load(m.buckets[b])); node != 0; node = memsim.Addr(m.heap.Load(node + nodeNext)) {
		nodes = append(nodes, node)
	}
	return nodes
}

// SameUpToPlacement returns nil if got's heap is want's up to where the
// chain nodes sit, and the first difference otherwise. Walking every
// chain of both maps together pairs each of want's node lines with one
// of got's; every other line pairs with itself. The pairing must be one
// to one, every word of every line must equal its partner's (a link as
// the partner of the line it points to), and both heaps must have
// handed out as many words. Verification helper; non-transactional.
func SameUpToPlacement(want, got *Map) error {
	wh, gh := want.heap, got.heap
	if wh.Size() != gh.Size() || wh.Allocated() != gh.Allocated() {
		return fmt.Errorf("heap of %d words with %d allocated, want %d with %d", gh.Size(), gh.Allocated(), wh.Size(), wh.Allocated())
	}
	if len(want.buckets) != len(got.buckets) {
		return fmt.Errorf("%d buckets, want %d", len(got.buckets), len(want.buckets))
	}
	pair := make([]memsim.Line, wh.Size()/memsim.WordsPerLine)
	for l := range pair {
		pair[l] = memsim.Line(l)
	}
	link := map[memsim.Addr]bool{}
	for b, head := range want.buckets {
		if got.buckets[b] != head {
			return fmt.Errorf("bucket %d head at word %d, want %d", b, got.buckets[b], head)
		}
		link[head] = true
		wc, gc := want.Chain(b), got.Chain(b)
		if len(wc) != len(gc) {
			return fmt.Errorf("bucket %d chain has %d nodes, want %d", b, len(gc), len(wc))
		}
		for i, node := range wc {
			pair[memsim.LineOf(node)] = memsim.LineOf(gc[i])
			link[node+nodeNext] = true
		}
	}
	taken := make([]bool, len(pair))
	for l, p := range pair {
		if taken[p] {
			return fmt.Errorf("line %d is the partner of two lines (one is %d)", p, l)
		}
		taken[p] = true
	}
	for l, p := range pair {
		for w := 0; w < memsim.WordsPerLine; w++ {
			a := memsim.Line(l).FirstAddr() + memsim.Addr(w)
			wv, gv := wh.Load(a), gh.Load(p.FirstAddr()+memsim.Addr(w))
			if to := memsim.Addr(wv); link[a] && to != 0 {
				wv = uint64(pair[memsim.LineOf(to)].FirstAddr() + memsim.Addr(memsim.WordInLine(to)))
			}
			if wv != gv {
				return fmt.Errorf("line %d word %d is %d, want %d (line %d's partner)", p, w, gv, wv, l)
			}
		}
	}
	return nil
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
	// Populate non-transactionally: even keys present, odd keys absent,
	// linked lowest first.
	m.Load(int(cfg.KeySpace()/2),
		func(i int) uint64 { return 2 * uint64(i) },
		func(key uint64) uint64 { return key * 10 })
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
