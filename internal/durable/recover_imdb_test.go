package durable

import (
	"path/filepath"
	"sync"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/imdb"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// buildOrdersDB constructs the test database deterministically: the
// same call sequence on a fresh heap of the same geometry yields
// identical heap addresses, which is what lets recovery rebuild the
// Go-side handles (table base, index root cells) and then restore the
// heap content underneath them from checkpoint + log.
func buildOrdersDB(heap *memsim.Heap) (*imdb.DB, *imdb.Table) {
	db := imdb.New(heap)
	t, err := db.CreateTable(imdb.Schema{
		Table:   "orders",
		Columns: []string{"id", "customer", "amount"},
	}, 1<<12)
	if err != nil {
		panic(err)
	}
	if err := t.CreateIndex("customer"); err != nil {
		panic(err)
	}
	return db, t
}

const ordersHeapLines = 1 << 13

// TestIMDBRecovery rebuilds a db/imdb instance from checkpoint + log
// replay: concurrent indexed inserts and updates run through a durable
// SI-HTM, a fuzzy checkpoint lands mid-run, and recovery on a fresh
// heap must reproduce the exact live image with all engine invariants
// (row/index consistency) intact.
func TestIMDBRecovery(t *testing.T) {
	const threads, perThread = 4, 120
	heap := memsim.NewHeapLines(ordersHeapLines)
	_, orders := buildOrdersDB(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	ckptPath := filepath.Join(dir, "heap.ckpt")
	store, err := Open(heap, logPath, 16, Config{WaitAck: true})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := orders.NewWriter()
			w.Prepare()
			pool := w.Pool()
			for i := 0; i < perThread; i++ {
				key := uint64(id*perThread + i + 1)
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					pool.Reset()
					if _, err := w.Insert(ops, []uint64{key, key % 17, key * 3}); err != nil {
						panic(err)
					}
				})
				w.Commit()
				if i%8 == 0 {
					id64 := uint64(0)
					dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
						pool.Reset()
						rid, ok := orders.LookupPK(ops, key)
						if !ok {
							panic("inserted key vanished")
						}
						id64 = uint64(rid)
						orders.Update(ops, rid, "amount", key*5, pool)
					})
					w.Commit()
					_ = id64
				}
			}
		}(id)
	}
	// One fuzzy checkpoint in the middle of the run: once a quarter of
	// the inserts are durable, with the rest still committing.
	store.Log().WaitDurable(threads * perThread / 4)
	if _, err := store.WriteCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := orders.CheckConsistency(); err != nil {
		t.Fatalf("live state inconsistent before recovery: %v", err)
	}

	// Recovery: rebuild the empty database deterministically on a fresh
	// heap, then restore checkpoint + replay the log underneath it.
	rheap := memsim.NewHeapLines(ordersHeapLines)
	_, rorders := buildOrdersDB(rheap)
	rep, err := Recover(rheap, ckptPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CheckpointUsed {
		t.Fatal("recovery did not use the checkpoint")
	}

	diffs := 0
	for a := 0; a < heap.Size(); a++ {
		if w, g := heap.Load(memsim.Addr(a)), rheap.Load(memsim.Addr(a)); w != g {
			diffs++
		}
	}
	if diffs != 0 {
		t.Fatalf("recovered heap differs from live heap in %d words", diffs)
	}

	// The recovered table object counts rows through its Go-side
	// counter, which recovery cannot restore — verify through the
	// indexes and raw heap instead.
	po := rheap
	total := threads * perThread
	found := 0
	for key := uint64(1); key <= uint64(total); key++ {
		if _, ok := rorders.LookupPK(plainOps{po}, key); ok {
			found++
		}
	}
	if found != total {
		t.Fatalf("recovered index resolves %d/%d keys", found, total)
	}
}

// plainOps adapts raw heap access for quiescent verification walks.
type plainOps struct{ heap *memsim.Heap }

func (o plainOps) Read(a memsim.Addr) uint64     { return o.heap.Load(a) }
func (o plainOps) Write(a memsim.Addr, v uint64) { o.heap.Store(a, v) }
