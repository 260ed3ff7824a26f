package engine

import (
	"fmt"

	"sihtm/internal/memsim"
	"sihtm/internal/tm"
	"sihtm/internal/workload/hashmap"
)

// HashmapBackend drives the paper's chained hash map (unordered; scans
// degenerate to consecutive point reads). Footprint knob: with all Keys
// populated, a lookup traverses ~Keys/(2·buckets) nodes on average, one
// cache line each.
type HashmapBackend struct {
	heap *memsim.Heap
	m    *hashmap.Map
}

// NewHashmapBackend builds the map with the given bucket count.
func NewHashmapBackend(heap *memsim.Heap, buckets int) *HashmapBackend {
	return &HashmapBackend{heap: heap, m: hashmap.New(heap, buckets)}
}

// HashmapHeapLines estimates the heap a spec needs on this backend:
// bucket heads, the populated nodes, steady-state churn slack and
// per-worker spares.
func HashmapHeapLines(spec Spec, buckets int) int {
	return buckets + 2*spec.Keys + 1<<13
}

// Name implements Backend.
func (b *HashmapBackend) Name() string { return "hashmap" }

// Map exposes the underlying structure for scenario-level checks.
func (b *HashmapBackend) Map() *hashmap.Map { return b.m }

// Direct implements Backend.
func (b *HashmapBackend) Direct() tm.Ops { return DirectOps{Heap: b.heap} }

// Load implements Loader: hashmap.Map.Load of Populate's keys in
// Populate's order, highest first, so each chain holds what the session
// inserts would link, laid out head first on consecutive lines.
func (b *HashmapBackend) Load(keys int) {
	b.m.Load(keys, func(i int) uint64 { return uint64(keys - 1 - i) }, InitialValue)
}

// Check implements Backend: every chain must terminate (no cycles).
func (b *HashmapBackend) Check() error {
	if _, ok := b.m.WalkBounded(1 << 24); !ok {
		return fmt.Errorf("engine: hash-map chain does not terminate (cycle)")
	}
	return nil
}

// NewSession implements Backend.
func (b *HashmapBackend) NewSession() Session {
	return &hashmapSession{b: b, pool: NewLinePool(b.heap)}
}

// hashmapSession wraps a LinePool in the Session protocol: spares feed
// inserts, and nodes a committed remove unlinked are recycled. It keeps
// the node its last call, a Read, found, so that a read-modify-write
// walks the chain once (the Session protocol's memo rule). Every Read
// and Insert writes the memo, so the padding keeps two threads'
// sessions, allocated side by side, off one host cache line.
type hashmapSession struct {
	b    *HashmapBackend
	pool *LinePool
	memo readMemo
	_    [64]byte
}

// readMemo is a Read's finding: key's node, found through ops. The zero
// value holds nothing.
type readMemo struct {
	ops  tm.Ops
	key  uint64
	node memsim.Addr
}

func (s *hashmapSession) Prepare(inserts int) {
	s.memo = readMemo{}
	s.pool.Prepare(inserts)
}

func (s *hashmapSession) Reset() {
	s.memo = readMemo{}
	s.pool.Reset()
}

func (s *hashmapSession) Read(ops tm.Ops, key uint64) (uint64, bool) {
	s.memo = readMemo{}
	node, value := s.b.m.Find(ops, key)
	if node != 0 {
		s.memo = readMemo{ops: ops, key: key, node: node}
	}
	return value, node != 0
}

func (s *hashmapSession) Insert(ops tm.Ops, key, value uint64) bool {
	memo := s.memo
	s.memo = readMemo{}
	if memo.node != 0 && memo.key == key && memo.ops == ops {
		s.b.m.Set(ops, memo.node, value)
		return false
	}
	if s.b.m.Insert(ops, key, value, s.pool.Peek()) {
		s.pool.Consume()
		return true
	}
	return false
}

func (s *hashmapSession) Delete(ops tm.Ops, key uint64) bool {
	s.memo = readMemo{}
	if node := s.b.m.Remove(ops, key); node != 0 {
		s.pool.Release(node)
		return true
	}
	return false
}

func (s *hashmapSession) Scan(ops tm.Ops, key uint64, n int) int {
	s.memo = readMemo{}
	found := 0
	for i := 0; i < n; i++ {
		if _, ok := s.b.m.Lookup(ops, key+uint64(i)); ok {
			found++
		}
	}
	return found
}

func (s *hashmapSession) Commit() {
	s.memo = readMemo{}
	s.pool.Commit()
}
