package engine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/topology"
	"sihtm/internal/wire"
)

func testSpec() Spec {
	return Spec{
		Name: "test",
		Keys: 500,
		Dist: Dist{Kind: DistZipfian, Theta: 0.9},
		Mix: []MixEntry{
			{Op: OpRead, Percent: 60},
			{Op: OpReadModifyWrite, Percent: 20},
			{Op: OpInsert, Percent: 8},
			{Op: OpDelete, Percent: 8},
			{Op: OpScan, Percent: 4},
		},
		OpsPerTxMin: 2,
		OpsPerTxMax: 6,
		ScanLen:     8,
		Seed:        42,
	}
}

func newHashmapDriver(t *testing.T, spec Spec, buckets int) (*Driver, *HashmapBackend, *htm.Machine) {
	t.Helper()
	heap := memsim.NewHeapLines(HashmapHeapLines(spec, buckets))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	b := NewHashmapBackend(heap, buckets)
	Populate(b, spec)
	d, err := New(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	return d, b, m
}

// Same seed + spec must yield identical per-thread op sequences, and
// distinct threads must diverge — the determinism contract every
// scenario inherits.
func TestPlanDeterminism(t *testing.T) {
	spec := testSpec()
	d1, _, _ := newHashmapDriver(t, spec, 50)
	d2, _, _ := newHashmapDriver(t, spec, 50)

	w1 := d1.NewWorker(nil, 3)
	w2 := d2.NewWorker(nil, 3)
	other := d1.NewWorker(nil, 4)
	diverged := false
	for tx := 0; tx < 500; tx++ {
		ro1, ins1 := w1.planTx()
		ro2, ins2 := w2.planTx()
		if ro1 != ro2 || ins1 != ins2 || len(w1.plan) != len(w2.plan) {
			t.Fatalf("tx %d: plans diverged (%v/%d/%d vs %v/%d/%d)",
				tx, ro1, ins1, len(w1.plan), ro2, ins2, len(w2.plan))
		}
		for i := range w1.plan {
			if w1.plan[i] != w2.plan[i] {
				t.Fatalf("tx %d op %d: %+v vs %+v", tx, i, w1.plan[i], w2.plan[i])
			}
		}
		other.planTx()
		if len(other.plan) != len(w1.plan) {
			diverged = true
		} else {
			for i := range w1.plan {
				if other.plan[i] != w1.plan[i] {
					diverged = true
				}
			}
		}
	}
	if !diverged {
		t.Fatal("threads 3 and 4 produced identical 500-tx sequences")
	}
}

// The planned (op, key) sequence of a fixed seed is pinned: a change
// to how the driver draws or represents its plans must not move a
// single op. Each op also carries the argument its mix entry fixes.
func TestPlanGolden(t *testing.T) {
	spec := testSpec()
	d, _, _ := newHashmapDriver(t, spec, 50)
	h := fnv.New64a()
	for _, th := range []int{0, 3} {
		w := d.NewWorker(nil, th)
		for tx := 0; tx < 1000; tx++ {
			ro, ins := w.planTx()
			fmt.Fprintf(h, "%v/%d;", ro, ins)
			for _, op := range w.plan {
				fmt.Fprintf(h, "%s:%d,", op.Kind, op.Key)
				want := map[wire.OpKind]uint64{wire.OpPut: InitialValue(op.Key), wire.OpRMW: 1, wire.OpScan: uint64(spec.ScanLen)}[op.Kind]
				if op.Arg != want {
					t.Fatalf("tx %d: %s %d carries arg %d, want %d", tx, op.Kind, op.Key, op.Arg, want)
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x97e3d97c7ed5fa40); got != want {
		t.Fatalf("plan hash %#x, want %#x", got, want)
	}
}

// planTx must classify transactions: all-read plans launch read-only,
// and the insert budget must cover every key-creating op.
func TestPlanClassification(t *testing.T) {
	spec := testSpec()
	spec.Mix = []MixEntry{{Op: OpRead, Percent: 80}, {Op: OpScan, Percent: 20}}
	d, _, _ := newHashmapDriver(t, spec, 50)
	w := d.NewWorker(nil, 0)
	for tx := 0; tx < 200; tx++ {
		ro, ins := w.planTx()
		if !ro || ins != 0 {
			t.Fatalf("read-only mix planned ro=%v inserts=%d", ro, ins)
		}
	}

	spec = testSpec()
	d, _, _ = newHashmapDriver(t, spec, 50)
	w = d.NewWorker(nil, 0)
	for tx := 0; tx < 200; tx++ {
		ro, ins := w.planTx()
		creators := 0
		writers := 0
		for _, p := range w.plan {
			if p.Kind == wire.OpPut || p.Kind == wire.OpRMW {
				creators++
			}
			if p.Kind != wire.OpGet && p.Kind != wire.OpScan {
				writers++
			}
		}
		if ins != creators {
			t.Fatalf("tx %d: insert budget %d, plan has %d creators", tx, ins, creators)
		}
		if ro != (writers == 0) {
			t.Fatalf("tx %d: ro=%v with %d writing ops", tx, ro, writers)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Name: "nokeys", Mix: []MixEntry{{Op: OpRead, Percent: 100}}},
		{Name: "nomix", Keys: 10},
		{Name: "sum", Keys: 10, Mix: []MixEntry{{Op: OpRead, Percent: 50}}},
		{Name: "badop", Keys: 10, Mix: []MixEntry{{Op: Op(99), Percent: 100}}},
		{Name: "badtheta", Keys: 10, Dist: Dist{Kind: DistZipfian, Theta: 1.5},
			Mix: []MixEntry{{Op: OpRead, Percent: 100}}},
		{Name: "badhot", Keys: 10, Dist: Dist{Kind: DistHotSet, HotKeysPercent: 100},
			Mix: []MixEntry{{Op: OpRead, Percent: 100}}},
	}
	for _, s := range bad {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("spec %q validated", s.Name)
		}
	}
	if err := testSpec().withDefaults().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

// End-to-end on the serial oracle: drive the full mix through SGL and
// verify the backend afterwards — values under keys the workload never
// creates stay recomputable, and the structure stays intact.
func TestEndToEndSGL(t *testing.T) {
	for _, backend := range []string{"hashmap", "btree"} {
		t.Run(backend, func(t *testing.T) {
			spec := testSpec()
			var (
				b    Backend
				m    *htm.Machine
				heap *memsim.Heap
			)
			if backend == "hashmap" {
				heap = memsim.NewHeapLines(HashmapHeapLines(spec, 50))
				m = htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
				b = NewHashmapBackend(heap, 50)
			} else {
				heap = memsim.NewHeapLines(BTreeHeapLines(spec))
				m = htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
				b = NewBTreeBackend(heap)
			}
			Populate(b, spec)
			d, err := New(spec, b)
			if err != nil {
				t.Fatal(err)
			}
			sys := sgl.NewSystem(m, 1)
			w := d.NewWorker(sys, 0)
			for i := 0; i < 3000; i++ {
				w.Op()
			}
			if got := sys.Collector().Snapshot().Commits; got == 0 {
				t.Fatal("no commits recorded")
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Multi-threaded smoke on SI-HTM: concurrent workers over the same
// backend must leave it structurally intact.
func TestConcurrentSIHTM(t *testing.T) {
	spec := testSpec()
	spec.Seed = 7
	d, b, m := newHashmapDriver(t, spec, 20)
	const threads = 4
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	done := make(chan struct{})
	for th := 0; th < threads; th++ {
		go func(th int) {
			defer func() { done <- struct{}{} }()
			w := d.NewWorker(sys, th)
			for i := 0; i < 400; i++ {
				w.Op()
			}
		}(th)
	}
	for th := 0; th < threads; th++ {
		<-done
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Collector().Snapshot().Commits; got < threads*400 {
		t.Fatalf("commits %d < %d ops issued", got, threads*400)
	}
}

// Populate must fill the whole keyspace with recomputable values on both
// backends.
func TestPopulate(t *testing.T) {
	spec := testSpec()
	spec.Keys = 300
	heap := memsim.NewHeapLines(BTreeHeapLines(spec))
	b := NewBTreeBackend(heap)
	Populate(b, spec)
	ops := b.Direct()
	for k := uint64(0); k < uint64(spec.Keys); k++ {
		v, ok := b.Tree().Lookup(ops, k)
		if !ok || v != InitialValue(k) {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, v, ok, InitialValue(k))
		}
	}
	if got := b.Tree().Count(ops); got != spec.Keys {
		t.Fatalf("tree count %d, want %d", got, spec.Keys)
	}
}

// The hash-map session must survive attempt replays: Reset must rewind
// the spare cursor and the removal list so a retried body reuses the
// same nodes and Commit recycles exactly the committed attempt's
// victims.
func TestHashmapSessionReplay(t *testing.T) {
	spec := testSpec()
	spec.Keys = 64
	heap := memsim.NewHeapLines(HashmapHeapLines(spec, 8))
	b := NewHashmapBackend(heap, 8)
	Populate(b, spec)
	ops := b.Direct()
	s := b.NewSession().(*hashmapSession)

	s.Prepare(2)
	allocated := heap.Allocated()
	// First attempt: insert two fresh keys, delete one existing.
	attempt := func() {
		s.Reset()
		s.Insert(ops, 1000, 1)
		s.Insert(ops, 1001, 2)
		s.Delete(ops, 1000)
	}
	attempt()
	// The structure now contains the first attempt's effects; a real
	// abort would roll them back, but the session-side bookkeeping must
	// rewind regardless: replay and commit.
	s.Delete(ops, 1001)
	s.Delete(ops, 1000)
	attempt()
	s.Commit()
	if heap.Allocated() != allocated {
		t.Fatalf("replay allocated fresh lines (%d -> %d); spares not reused",
			allocated, heap.Allocated())
	}
	if _, ok := b.Map().Lookup(ops, 1001); !ok {
		t.Fatal("committed insert of key 1001 missing")
	}
	if _, ok := b.Map().Lookup(ops, 1000); ok {
		t.Fatal("committed delete of key 1000 ineffective")
	}
	// Both spares were consumed by the committed inserts; the node the
	// committed delete unlinked must be recycled into the spare pool.
	if len(s.pool.spares) != 1 {
		t.Fatalf("spare pool has %d nodes after commit, want 1 (the recycled victim)", len(s.pool.spares))
	}
	if len(s.pool.released) != 0 {
		t.Fatalf("release list not drained by Commit: %v", s.pool.released)
	}
}

// Scan must see consecutive populated keys on both backends.
func TestScan(t *testing.T) {
	spec := testSpec()
	spec.Keys = 200
	for _, mk := range []func() Backend{
		func() Backend {
			return NewHashmapBackend(memsim.NewHeapLines(HashmapHeapLines(spec, 16)), 16)
		},
		func() Backend { return NewBTreeBackend(memsim.NewHeapLines(BTreeHeapLines(spec))) },
	} {
		b := mk()
		Populate(b, spec)
		s := b.NewSession()
		s.Prepare(0)
		s.Reset()
		if got := s.Scan(b.Direct(), 10, 25); got != 25 {
			t.Fatalf("%s: scan(10,25) = %d, want 25", b.Name(), got)
		}
		s.Commit()
	}
}
