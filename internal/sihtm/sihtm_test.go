package sihtm_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

func newSystem(t testing.TB, threads int, cfg sihtm.Config) (*sihtm.System, *memsim.Heap) {
	t.Helper()
	heap := memsim.NewHeapLines(1 << 10)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 16})
	return sihtm.NewSystem(m, threads, cfg), heap
}

func TestNameAndThreads(t *testing.T) {
	sys, _ := newSystem(t, 3, sihtm.Config{})
	if sys.Name() != "si-htm" {
		t.Fatalf("Name = %q", sys.Name())
	}
	if sys.Threads() != 3 {
		t.Fatalf("Threads = %d", sys.Threads())
	}
}

// Read-only transactions must never consume TMCAM capacity: a read-only
// scan far beyond the TMCAM commits on the fast path with zero aborts.
func TestReadOnlyUnlimitedCapacity(t *testing.T) {
	sys, heap := newSystem(t, 1, sihtm.Config{})
	lines := make([]memsim.Addr, 200) // 200 lines >> 16-line TMCAM
	for i := range lines {
		lines[i] = heap.AllocLine()
		heap.Store(lines[i], uint64(i))
	}
	var sum uint64
	sys.Atomic(0, tm.KindReadOnly, func(ops tm.Ops) {
		sum = 0
		for _, a := range lines {
			sum += ops.Read(a)
		}
	})
	if sum != 199*200/2 {
		t.Fatalf("sum = %d", sum)
	}
	s := sys.Collector().Snapshot()
	if s.TotalAborts() != 0 || s.CommitsRO != 1 || s.Fallbacks != 0 {
		t.Fatalf("stats = %v", s)
	}
}

// Update transactions are bounded only by their write set: huge read
// footprints with small write sets commit without capacity aborts — the
// paper's central capacity-stretching claim.
func TestUpdateCapacityBoundedByWriteSetOnly(t *testing.T) {
	sys, heap := newSystem(t, 1, sihtm.Config{})
	lines := make([]memsim.Addr, 200)
	for i := range lines {
		lines[i] = heap.AllocLine()
	}
	out := heap.AllocLine()
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		var sum uint64
		for _, a := range lines {
			sum += ops.Read(a)
		}
		ops.Write(out, sum+1)
	})
	s := sys.Collector().Snapshot()
	if s.Aborts[stats.AbortCapacity] != 0 {
		t.Fatalf("capacity aborts = %d, want 0", s.Aborts[stats.AbortCapacity])
	}
	if heap.Load(out) != 1 {
		t.Fatal("commit lost")
	}
}

// ...while a write set beyond the TMCAM must fall back to the SGL.
func TestLargeWriteSetFallsBack(t *testing.T) {
	sys, heap := newSystem(t, 1, sihtm.Config{Retries: 3})
	lines := make([]memsim.Addr, 32) // 32 > 16-line TMCAM
	for i := range lines {
		lines[i] = heap.AllocLine()
	}
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		for i, a := range lines {
			ops.Write(a, uint64(i)+1)
		}
	})
	s := sys.Collector().Snapshot()
	if s.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", s.Fallbacks)
	}
	if s.Aborts[stats.AbortCapacity] != 2 {
		t.Fatalf("capacity aborts = %d, want 2 (persistent-capacity budget)", s.Aborts[stats.AbortCapacity])
	}
	for i, a := range lines {
		if heap.Load(a) != uint64(i)+1 {
			t.Fatal("SGL path lost writes")
		}
	}
}

// DisableROFastPath (ablation A3) pushes read-only transactions through
// the ROT + safety-wait path.
func TestDisableROFastPath(t *testing.T) {
	sys, heap := newSystem(t, 1, sihtm.Config{DisableROFastPath: true})
	x := heap.AllocLine()
	sys.Atomic(0, tm.KindReadOnly, func(ops tm.Ops) { _ = ops.Read(x) })
	s := sys.Collector().Snapshot()
	if s.Commits != 1 || s.CommitsRO != 1 {
		t.Fatalf("stats = %v", s)
	}
	// With the fast path disabled a huge read-only scan still works (ROT
	// reads are untracked), so this ablation only adds quiescence cost.
	lines := make([]memsim.Addr, 100)
	for i := range lines {
		lines[i] = heap.AllocLine()
	}
	sys.Atomic(0, tm.KindReadOnly, func(ops tm.Ops) {
		for _, a := range lines {
			_ = ops.Read(a)
		}
	})
	if got := sys.Collector().Snapshot().Aborts[stats.AbortCapacity]; got != 0 {
		t.Fatalf("capacity aborts = %d, want 0", got)
	}
}

// The §6 killing policy: a writer stuck in its safety wait behind a
// laggard kills the laggard and commits. Without the policy this
// interleaving deadlocks (the laggard only finishes after the writer
// returns), so the test completing at all proves the kill works.
func TestKillerPolicyUnblocksWaiter(t *testing.T) {
	sys, heap := newSystem(t, 2, sihtm.Config{KillerSpins: 200})
	x := heap.AllocLine()
	z := heap.AllocLine()

	var released atomic.Bool
	laggardStarted := make(chan struct{})
	var startOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the laggard: reads in a loop until released
		defer wg.Done()
		sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
			startOnce.Do(func() { close(laggardStarted) }) // the kill re-runs the body
			for !released.Load() {
				_ = ops.Read(z) // abort delivery point for the kill
			}
			ops.Write(z, 1)
		})
	}()
	go func() { // the writer that must not wait forever
		defer wg.Done()
		<-laggardStarted
		sys.Atomic(1, tm.KindUpdate, func(ops tm.Ops) {
			ops.Write(x, 42)
		})
		released.Store(true) // only now may the laggard finish
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("killer policy did not unblock the waiting writer")
	}
	if heap.Load(x) != 42 || heap.Load(z) != 1 {
		t.Fatal("lost writes")
	}
	s := sys.Collector().Snapshot()
	if s.TotalAborts() == 0 {
		t.Fatal("expected at least one kill-induced abort")
	}
}

// The §6 batching interface: the batch pays one quiescence and commits
// atomically — a concurrent snapshot never sees one body's write without
// the other's.
func TestAtomicBatchIsAtomic(t *testing.T) {
	sys, heap := newSystem(t, 2, sihtm.Config{})
	x := heap.AllocLine()
	y := heap.AllocLine()

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			sys.AtomicBatch(0, []func(tm.Ops){
				func(ops tm.Ops) { ops.Write(x, ops.Read(x)+1) },
				func(ops tm.Ops) { ops.Write(y, ops.Read(y)+1) },
			})
		}
	}()
	tornSeen := false
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var a, b uint64
			sys.Atomic(1, tm.KindReadOnly, func(ops tm.Ops) {
				a = ops.Read(x)
				b = ops.Read(y)
			})
			if a != b {
				tornSeen = true
				return
			}
		}
	}()
	wg.Wait()
	if tornSeen {
		t.Fatal("batch commit observed torn")
	}
	if heap.Load(x) != rounds || heap.Load(y) != rounds {
		t.Fatalf("batch lost updates: x=%d y=%d, want %d", heap.Load(x), heap.Load(y), rounds)
	}
	s := sys.Collector().Snapshot()
	if s.Commits < 2*rounds {
		t.Fatalf("batch commits = %d, want >= %d (one per body)", s.Commits, 2*rounds)
	}
}

func TestAtomicBatchEmpty(t *testing.T) {
	sys, _ := newSystem(t, 1, sihtm.Config{})
	sys.AtomicBatch(0, nil) // must be a no-op
	if got := sys.Collector().Snapshot().Commits; got != 0 {
		t.Fatalf("commits = %d, want 0", got)
	}
}

// Concurrent mixed workload smoke test: updates + read-only scans with
// full stats accounting.
func TestMixedWorkloadAccounting(t *testing.T) {
	sys, heap := newSystem(t, 4, sihtm.Config{})
	x := heap.AllocLine()
	const perThread = 400
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				if i%4 == 0 {
					sys.Atomic(id, tm.KindReadOnly, func(ops tm.Ops) { _ = ops.Read(x) })
				} else {
					sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
						ops.Write(x, ops.Read(x)+1)
					})
				}
			}
		}(id)
	}
	wg.Wait()
	s := sys.Collector().Snapshot()
	if s.Commits != 4*perThread {
		t.Fatalf("commits = %d, want %d", s.Commits, 4*perThread)
	}
	if s.CommitsRO != 4*perThread/4 {
		t.Fatalf("RO commits = %d, want %d", s.CommitsRO, perThread)
	}
	if got := heap.Load(x); got != uint64(4*perThread*3/4) {
		t.Fatalf("counter = %d, want %d", got, 4*perThread*3/4)
	}
}
