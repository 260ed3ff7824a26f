package silo_test

import (
	"sync"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/silo"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
)

func newSystem(t testing.TB, threads int) (*silo.System, *memsim.Heap) {
	t.Helper()
	heap := memsim.NewHeapLines(1 << 10)
	return silo.NewSystem(htm.NewMachine(heap, htm.Config{}), threads), heap
}

func TestName(t *testing.T) {
	sys, _ := newSystem(t, 2)
	if sys.Name() != "silo" || sys.Threads() != 2 {
		t.Fatalf("Name/Threads = %q/%d", sys.Name(), sys.Threads())
	}
}

func TestNewSystemValidation(t *testing.T) {
	m := htm.NewMachine(memsim.NewHeapLines(4), htm.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem(m, 0) did not panic")
		}
	}()
	silo.NewSystem(m, 0)
}

func TestReadOwnWrites(t *testing.T) {
	sys, heap := newSystem(t, 1)
	a := heap.AllocLine()
	heap.Store(a, 3)
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		if got := ops.Read(a); got != 3 {
			t.Fatalf("read = %d, want 3", got)
		}
		ops.Write(a, 4)
		if got := ops.Read(a); got != 4 {
			t.Fatalf("read-own-write = %d, want 4", got)
		}
		ops.Write(a, 5)
		if got := ops.Read(a); got != 5 {
			t.Fatalf("second own write = %d, want 5", got)
		}
	})
	if heap.Load(a) != 5 {
		t.Fatal("commit lost")
	}
}

// Writes are buffered: nothing reaches the heap until commit succeeds.
func TestNoDirtyWrites(t *testing.T) {
	sys, heap := newSystem(t, 2)
	a := heap.AllocLine()
	observed := make(chan uint64, 1)
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		ops.Write(a, 9)
		// The write must be invisible to a raw heap read before commit.
		select {
		case observed <- heap.Load(a):
		default:
		}
	})
	if got := <-observed; got != 0 {
		t.Fatalf("pre-commit heap value = %d, want 0", got)
	}
	if heap.Load(a) != 9 {
		t.Fatal("commit lost")
	}
}

// Silo has no capacity limits: a transaction over hundreds of lines
// commits in one attempt.
func TestNoCapacityLimits(t *testing.T) {
	sys, heap := newSystem(t, 1)
	lines := make([]memsim.Addr, 300)
	for i := range lines {
		lines[i] = heap.AllocLine()
	}
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		var sum uint64
		for _, a := range lines {
			sum += ops.Read(a)
		}
		for i, a := range lines {
			ops.Write(a, sum+uint64(i)+1)
		}
	})
	s := sys.Collector().Snapshot()
	if s.TotalAborts() != 0 || s.Commits != 1 {
		t.Fatalf("stats = %v", s)
	}
	for i, a := range lines {
		if heap.Load(a) != uint64(i)+1 {
			t.Fatalf("line %d = %d, want %d", i, heap.Load(a), i+1)
		}
	}
}

func TestContendedCounterExactness(t *testing.T) {
	sys, heap := newSystem(t, 4)
	x := heap.AllocLine()
	pad := heap.AllocLines(16) // stretch the read-to-commit window
	const perThread = 800
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					v := ops.Read(x)
					// Widen the validation window so concurrent increments
					// overlap even on heavily time-sliced hosts.
					for j := 0; j < 16; j++ {
						v += ops.Read(pad + memsim.Addr(j*memsim.WordsPerLine))
					}
					ops.Write(x, v+1)
				})
			}
		}(id)
	}
	wg.Wait()
	if got := heap.Load(x); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
	s := sys.Collector().Snapshot()
	if s.Aborts[stats.AbortCapacity] != 0 || s.Aborts[stats.AbortNonTransactional] != 0 {
		t.Errorf("silo produced non-OCC abort kinds: %v", s.Aborts)
	}
}

// Version bumps make stale reads fail validation even across disjoint
// word offsets within one line (false sharing is detected at line
// granularity, like the hardware).
func TestLineGranularityConflicts(t *testing.T) {
	sys, heap := newSystem(t, 2)
	line := heap.AllocLine() // word 0 and word 1 share the line
	const perThread = 500
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a := line + memsim.Addr(id) // distinct words, same line
			for i := 0; i < perThread; i++ {
				sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					ops.Write(a, ops.Read(a)+1)
				})
			}
		}(id)
	}
	wg.Wait()
	if heap.Load(line) != perThread || heap.Load(line+1) != perThread {
		t.Fatalf("counters = (%d,%d), want (%d,%d)",
			heap.Load(line), heap.Load(line+1), perThread, perThread)
	}
}
