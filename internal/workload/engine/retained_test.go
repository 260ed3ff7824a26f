package engine

import (
	"runtime"
	"sync"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/race"
	"sihtm/internal/sihtm"
	"sihtm/internal/topology"
)

// TestRetainedHeapIsFlatInTransactions runs si-htm over the shape of
// the kv-update benchmark (8192 keys in chains of 8, Zipfian 0.99, two
// threads, 8 ops per transaction, half of them read-modify-writes)
// through engine sessions, and reads the Go heap in use after N and
// after 4N transactions. Everything the program keeps per thread is
// pooled, so the heap must not grow with the work done: a leak of a
// quarter of a byte per transaction would add about 75 KB here.
func TestRetainedHeapIsFlatInTransactions(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("runs 400 000 transactions")
	}
	const (
		threads  = 2
		perN     = 50_000 // transactions per thread in the first N
		maxGrown = 32 << 10
	)
	spec := Spec{
		Name:        "kv-update",
		Keys:        8192,
		Dist:        Dist{Kind: DistZipfian, Theta: 0.99},
		Mix:         []MixEntry{{Op: OpRead, Percent: 50}, {Op: OpReadModifyWrite, Percent: 50}},
		OpsPerTxMin: 8,
		OpsPerTxMax: 8,
		Seed:        1,
	}
	const buckets = 8192 / 8
	heap := memsim.NewHeapLines(HashmapHeapLines(spec, buckets))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	b := NewHashmapBackend(heap, buckets)
	Populate(b, spec)
	d, err := New(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	workers := make([]*Worker, threads)
	for i := range workers {
		workers[i] = d.NewWorker(sys, i)
	}
	run := func(perThread int) {
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range perThread {
					w.Op()
				}
			}()
		}
		wg.Wait()
	}
	inUse := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's finalizers let go
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	run(perN)
	atN := inUse()
	run(3 * perN)
	at4N := inUse()
	t.Logf("HeapInuse %d B after %d transactions, %d B after %d", atN, threads*perN, at4N, 4*threads*perN)
	if at4N > atN+maxGrown {
		t.Fatalf("HeapInuse grew %d B over %d more transactions, bound %d B",
			at4N-atN, 3*threads*perN, maxGrown)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sys)
}
