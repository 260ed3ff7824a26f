package sihtm_test

import (
	"sync"
	"testing"

	"sihtm"
)

func TestQuickstartFlow(t *testing.T) {
	rt := sihtm.New(sihtm.Config{HeapLines: 1 << 10})
	x := rt.Heap().AllocLine()
	sys := rt.NewSIHTM(2)

	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sys.Atomic(id, sihtm.KindUpdate, func(ops sihtm.Ops) {
					ops.Write(x, ops.Read(x)+1)
				})
			}
		}(id)
	}
	wg.Wait()
	if got := rt.Heap().Load(x); got != 1000 {
		t.Fatalf("counter = %d, want 1000", got)
	}
	if s := sys.Collector().Snapshot(); s.Commits != 1000 {
		t.Fatalf("commits = %d, want 1000", s.Commits)
	}
}

func TestDefaultsMatchPaperMachine(t *testing.T) {
	rt := sihtm.New(sihtm.Config{HeapLines: 16})
	if rt.Topology().Cores() != 10 || rt.Topology().SMTWays() != 8 {
		t.Fatalf("default topology = %v, want 10×SMT-8", rt.Topology())
	}
	if rt.MaxThreads() != 80 {
		t.Fatalf("MaxThreads = %d, want 80", rt.MaxThreads())
	}
}

func TestEverySystemRunsTheSameBody(t *testing.T) {
	rt := sihtm.New(sihtm.Config{HeapLines: 1 << 10, Cores: 4, SMTWays: 2})
	for _, c := range []struct {
		name string
		sys  sihtm.System
	}{
		{"htm", rt.NewHTM(2)}, {"si-htm", rt.NewSIHTM(2)}, {"p8tm", rt.NewP8TM(2)},
		{"silo", rt.NewSilo(2)}, {"sgl", rt.NewSGL(2)},
	} {
		sys := c.sys
		if sys.Name() != c.name || sys.Threads() != 2 {
			t.Fatalf("system %q reports name %q, threads %d", c.name, sys.Name(), sys.Threads())
		}
		a := rt.Heap().AllocLine()
		sys.Atomic(0, sihtm.KindUpdate, func(ops sihtm.Ops) {
			ops.Write(a, 41)
			ops.Write(a, ops.Read(a)+1)
		})
		if got := rt.Heap().Load(a); got != 42 {
			t.Fatalf("%s: value = %d, want 42", sys.Name(), got)
		}
	}
}

func TestPromoteReadPreventsWriteSkew(t *testing.T) {
	rt := sihtm.New(sihtm.Config{HeapLines: 1 << 10, Cores: 2, SMTWays: 1})
	sys := rt.NewSIHTM(2)
	x := rt.Heap().AllocLine()
	y := rt.Heap().AllocLine()

	for round := 0; round < 30; round++ {
		rt.Heap().Store(x, 0)
		rt.Heap().Store(y, 0)
		var wg sync.WaitGroup
		run := func(id int, own, other sihtm.Addr) {
			defer wg.Done()
			sys.Atomic(id, sihtm.KindUpdate, func(ops sihtm.Ops) {
				sum := ops.Read(own) + sihtm.PromoteRead(ops, other)
				if sum == 0 {
					ops.Write(own, 1)
				}
			})
		}
		wg.Add(2)
		go run(0, x, y)
		go run(1, y, x)
		wg.Wait()
		if rt.Heap().Load(x)+rt.Heap().Load(y) == 2 {
			t.Fatalf("round %d: write skew despite read promotion", round)
		}
	}
}
