package enginetest

import (
	"path/filepath"
	"sync"
	"testing"

	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
)

// TestBTreeRecovery rebuilds a B+tree backend from checkpoint + log
// replay: concurrent inserts that split nodes, plus periodic
// read-modify-writes, run through a durable SI-HTM, a fuzzy checkpoint
// lands mid-run, and recovery on a fresh deterministic build must
// reproduce the exact live image with every key resolvable. The tree's
// root pointer lives in the heap, so the fresh build's Go-side handle
// reads the recovered root.
func TestBTreeRecovery(t *testing.T) {
	const threads, perThread = 4, 120
	const total = threads * perThread
	heap := heapFor(total, 0)
	tree := engine.NewBTreeBackend(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	ckptPath := filepath.Join(dir, "heap.ckpt")
	store, err := durable.Open(heap, logPath, m.Topology().MaxThreads(), durable.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := tree.NewSession()
			for i := 0; i < perThread; i++ {
				key := uint64(id*perThread + i + 1)
				s.Prepare(1)
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					s.Reset()
					s.Insert(ops, key, key*3)
				})
				s.Commit()
				if i%8 == 0 {
					s.Prepare(1)
					dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
						s.Reset()
						v, ok := s.Read(ops, key)
						if !ok {
							panic("inserted key vanished")
						}
						s.Insert(ops, key, v+key*5)
					})
					s.Commit()
				}
			}
		}(id)
	}
	// One fuzzy checkpoint in the middle of the run: once a quarter of
	// the inserts are durable, with the rest still committing.
	store.Log().WaitDurable(total / 4)
	if _, err := store.WriteCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("live tree inconsistent before recovery: %v", err)
	}

	// Recovery: rebuild the empty tree deterministically on a fresh
	// heap, then restore checkpoint + replay the log underneath it.
	rheap := heapFor(total, 0)
	rtree := engine.NewBTreeBackend(rheap)
	rep, err := durable.Recover(rheap, ckptPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CheckpointUsed {
		t.Fatal("recovery did not use the checkpoint")
	}
	diffs := 0
	for a := 0; a < heap.Size(); a++ {
		if heap.Load(memsim.Addr(a)) != rheap.Load(memsim.Addr(a)) {
			diffs++
		}
	}
	if diffs != 0 {
		t.Fatalf("recovered heap differs from live heap in %d words", diffs)
	}
	s := rtree.NewSession()
	found := 0
	for key := uint64(1); key <= total; key++ {
		if _, ok := s.Read(rtree.Direct(), key); ok {
			found++
		}
	}
	if found != total {
		t.Fatalf("recovered tree resolves %d/%d keys", found, total)
	}
}
