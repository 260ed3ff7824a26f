// Package enginetest is the shared conformance suite for
// engine.Backend implementations, in the mould of internal/tmtest:
// every backend the workload engine can drive — the chained hash map,
// the B+tree index and their durable decorations — must expose the same
// observable key-value semantics through the Session protocol
// (Prepare / Reset / ops / Commit), survive retry-style Reset rewinds,
// agree with a model map under randomized churn, and keep its
// structural invariants under concurrent transactional load.
package enginetest

import (
	"testing"

	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/rng"
	"sihtm/internal/tm"
	"sihtm/internal/workload/engine"
)

// Instance is one backend under test, built over its own heap and
// machine so tests are independent.
type Instance struct {
	Backend engine.Backend
	Heap    *memsim.Heap
	Machine *htm.Machine // nil for machine-less systems
	Sys     tm.System
	Cleanup func()
}

// Maker builds a fresh Instance sized for the given keyspace and
// thread count.
type Maker func(t *testing.T, keys, threads int) Instance

// Run executes the whole conformance suite against one backend family.
func Run(t *testing.T, name string, mk Maker) {
	t.Run(name+"/PopulateAndLookup", func(t *testing.T) { checkPopulate(t, mk) })
	t.Run(name+"/SessionProtocol", func(t *testing.T) { checkSessionProtocol(t, mk) })
	t.Run(name+"/ResetRewind", func(t *testing.T) { checkResetRewind(t, mk) })
	t.Run(name+"/ReadThenInsert", func(t *testing.T) { checkReadThenInsert(t, mk) })
	t.Run(name+"/ModelChurn", func(t *testing.T) { checkModelChurn(t, mk) })
	t.Run(name+"/ConcurrentDriver", func(t *testing.T) { checkConcurrentDriver(t, mk) })
}

func spec(keys int) engine.Spec {
	return engine.Spec{
		Name: "enginetest",
		Keys: keys,
		Dist: engine.Dist{Kind: engine.DistUniform},
		Mix: []engine.MixEntry{
			{Op: engine.OpRead, Percent: 50},
			{Op: engine.OpReadModifyWrite, Percent: 30},
			{Op: engine.OpInsert, Percent: 10},
			{Op: engine.OpDelete, Percent: 10},
		},
		OpsPerTxMin: 1, OpsPerTxMax: 4,
		Seed: 42,
	}
}

// Agree runs one seeded single-thread driver over two backend families
// and requires the same contents afterwards: every key of [0, 2·Keys)
// holds the same value, or is absent, in both. Over an in-process
// backend and a remote one, it checks that a plan executed op by op
// (engine.Exec) and the same plan deferred and shipped as one TXN mean
// the same thing.
func Agree(t *testing.T, a, b Maker) {
	const keys, txs = 64, 400
	var got [2]map[uint64]uint64
	for i, mk := range []Maker{a, b} {
		in := mk(t, keys, 1)
		sp := spec(keys)
		engine.Populate(in.Backend, sp)
		d, err := engine.New(sp, in.Backend)
		if err != nil {
			t.Fatal(err)
		}
		w := d.NewWorker(in.Sys, 0)
		for n := 0; n < txs; n++ {
			w.Op()
		}
		got[i] = map[uint64]uint64{}
		s, ops := in.Backend.NewSession(), in.Backend.Direct()
		s.Prepare(0)
		s.Reset()
		for k := uint64(0); k < 2*keys; k++ {
			if v, ok := s.Read(ops, k); ok {
				got[i][k] = v
			}
		}
		s.Commit()
		in.Cleanup()
	}
	changed := false
	for k := uint64(0); k < 2*keys; k++ {
		av, aok := got[0][k]
		bv, bok := got[1][k]
		if av != bv || aok != bok {
			t.Fatalf("key %d: (%d, %v) against (%d, %v)", k, av, aok, bv, bok)
		}
		changed = changed || !aok || av != engine.InitialValue(k)
	}
	if !changed {
		t.Fatal("the driver changed no key")
	}
}

// checkPopulate: Populate fills exactly [0, Keys) with InitialValue,
// visible both through Direct and through a transactional session.
func checkPopulate(t *testing.T, mk Maker) {
	const keys = 64
	in := mk(t, keys, 1)
	defer in.Cleanup()
	engine.Populate(in.Backend, spec(keys))

	s := in.Backend.NewSession()
	ops := in.Backend.Direct()
	s.Prepare(0)
	s.Reset()
	for k := uint64(0); k < keys; k++ {
		v, ok := s.Read(ops, k)
		if !ok || v != engine.InitialValue(k) {
			t.Fatalf("key %d: (%d, %v), want (%d, true)", k, v, ok, engine.InitialValue(k))
		}
	}
	if _, ok := s.Read(ops, keys); ok {
		t.Fatalf("key %d beyond the populated keyspace is present", keys)
	}
	s.Commit()
	if err := in.Backend.Check(); err != nil {
		t.Fatal(err)
	}
}

// checkSessionProtocol: insert / upsert / delete / scan semantics
// through real transactions.
func checkSessionProtocol(t *testing.T, mk Maker) {
	const keys = 64
	in := mk(t, keys, 1)
	defer in.Cleanup()
	engine.Populate(in.Backend, spec(keys))
	s := in.Backend.NewSession()

	atomic := func(inserts int, body func(ops tm.Ops)) {
		s.Prepare(inserts)
		in.Sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
			s.Reset()
			body(ops)
		})
		s.Commit()
	}

	atomic(1, func(ops tm.Ops) {
		if !s.Insert(ops, 1000, 7) {
			t.Error("Insert of a fresh key reported existing")
		}
	})
	atomic(1, func(ops tm.Ops) {
		if s.Insert(ops, 1000, 8) {
			t.Error("upsert of an existing key reported new")
		}
	})
	atomic(0, func(ops tm.Ops) {
		if v, ok := s.Read(ops, 1000); !ok || v != 8 {
			t.Errorf("Read(1000) = (%d, %v), want (8, true)", v, ok)
		}
	})
	atomic(0, func(ops tm.Ops) {
		if !s.Delete(ops, 1000) {
			t.Error("Delete of a present key reported absent")
		}
		if s.Delete(ops, 1000) {
			t.Error("Delete of an absent key reported present")
		}
	})
	atomic(0, func(ops tm.Ops) {
		// All keys 0..keys-1 are present: a scan from 0 sees min(n, keys).
		if got := s.Scan(ops, 0, 10); got != 10 {
			t.Errorf("Scan(0, 10) = %d, want 10", got)
		}
	})
	if err := in.Backend.Check(); err != nil {
		t.Fatal(err)
	}
}

// checkResetRewind emulates the TM retry contract inside one
// transaction: the body runs its planned ops, rewinds with Reset, and
// runs them again — the backend must end in the single-execution state
// (aborted attempts must not leak nodes or double-apply).
func checkResetRewind(t *testing.T, mk Maker) {
	const keys = 32
	in := mk(t, keys, 1)
	defer in.Cleanup()
	engine.Populate(in.Backend, spec(keys))
	s := in.Backend.NewSession()

	s.Prepare(2)
	in.Sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		for attempt := 0; attempt < 2; attempt++ {
			s.Reset()
			s.Insert(ops, 500, 1)
			s.Insert(ops, 501, 2)
			s.Delete(ops, 3)
		}
	})
	s.Commit()

	s.Prepare(0)
	s.Reset()
	ops := in.Backend.Direct()
	if v, ok := s.Read(ops, 500); !ok || v != 1 {
		t.Errorf("Read(500) = (%d, %v), want (1, true)", v, ok)
	}
	if v, ok := s.Read(ops, 501); !ok || v != 2 {
		t.Errorf("Read(501) = (%d, %v), want (2, true)", v, ok)
	}
	if _, ok := s.Read(ops, 3); ok {
		t.Error("key 3 still present after replayed delete")
	}
	s.Commit()
	if err := in.Backend.Check(); err != nil {
		t.Fatal(err)
	}
}

// countingOps counts the accesses a session makes through it.
type countingOps struct {
	tm.Ops
	reads, writes int
}

func (o *countingOps) Read(a memsim.Addr) uint64 {
	o.reads++
	return o.Ops.Read(a)
}

func (o *countingOps) Write(a memsim.Addr, v uint64) {
	o.writes++
	o.Ops.Write(a, v)
}

// walksOnce reports whether b's sessions keep the memo rule's node, so
// that an Insert right after a Read of its key reads nothing: the hash
// map does, the B+tree walks twice.
func walksOnce(b engine.Backend) bool {
	if d, ok := b.(*engine.DurableBackend); ok {
		b = d.Unwrap()
	}
	_, ok := b.(*engine.HashmapBackend)
	return ok
}

// checkReadThenInsert pins the Session protocol's memo rule. A Read of
// a key then an Insert of it through the same Ops is one walk on the
// hash map; any call or Ops change in between makes the Insert walk
// again, whatever it did to the key. Return codes and values are the
// same on every backend, so the one-walk path means what the B+tree's
// two walks mean.
func checkReadThenInsert(t *testing.T, mk Maker) {
	const keys = 16
	in := mk(t, keys, 1)
	defer in.Cleanup()
	engine.Populate(in.Backend, spec(keys))
	s, direct := in.Backend.NewSession(), in.Backend.Direct()
	once := walksOnce(in.Backend)
	want := map[uint64]uint64{}
	for k := uint64(0); k < keys; k++ {
		want[k] = engine.InitialValue(k)
	}
	const absent = 1000 // never inserted, so a Delete of it changes nothing

	// read reads key through c, checks it against want, and returns the
	// value and the reads the walk took.
	read := func(c *countingOps, key uint64) (uint64, int) {
		t.Helper()
		r0 := c.reads
		v, ok := s.Read(c, key)
		if wv, wok := want[key]; v != wv || ok != wok {
			t.Fatalf("Read(%d) = (%d, %v), want (%d, %v)", key, v, ok, wv, wok)
		}
		return v, c.reads - r0
	}
	// insert upserts key through c and returns the reads it took.
	insert := func(c *countingOps, key, value uint64) int {
		t.Helper()
		r0 := c.reads
		_, present := want[key]
		if isNew := s.Insert(c, key, value); isNew == present {
			t.Fatalf("Insert(%d) reported new=%v, want %v", key, isNew, !present)
		}
		want[key] = value
		return c.reads - r0
	}

	s.Prepare(1)
	s.Reset()
	c := &countingOps{Ops: direct}
	v, walk := read(c, 5)
	if n := insert(c, 5, v+1); once && (n != 0 || c.writes != 1) {
		t.Errorf("Insert right after Read of its key: %d reads, %d writes, want 0 and 1", n, c.writes)
	}
	s.Commit()

	between := []struct {
		name string
		call func(c *countingOps) *countingOps // returns the Ops the Insert uses
	}{
		{"Reset", func(c *countingOps) *countingOps { s.Reset(); return c }},
		{"Commit", func(c *countingOps) *countingOps { s.Commit(); return c }},
		{"Prepare", func(c *countingOps) *countingOps { s.Prepare(1); return c }},
		{"Read of another key", func(c *countingOps) *countingOps { read(c, 6); return c }},
		{"Insert of another key", func(c *countingOps) *countingOps { insert(c, 6, 66); return c }},
		{"Delete of another key", func(c *countingOps) *countingOps { s.Delete(c, absent); return c }},
		{"Scan", func(c *countingOps) *countingOps { s.Scan(c, 6, 2); return c }},
		{"other Ops", func(c *countingOps) *countingOps { return &countingOps{Ops: direct} }},
	}
	for _, b := range between {
		s.Prepare(1)
		s.Reset()
		c := &countingOps{Ops: direct}
		v, walk = read(c, 5)
		ic := b.call(c)
		if n := insert(ic, 5, v+1); once && n != walk-1 {
			t.Errorf("Insert after Read, %s: %d reads, want a fresh walk of %d", b.name, n, walk-1)
		}
		s.Commit()
	}

	// The memo's node unlinked in between: the Insert links a new one.
	s.Prepare(1)
	s.Reset()
	c = &countingOps{Ops: direct}
	v, _ = read(c, 7)
	if !s.Delete(c, 7) {
		t.Fatal("Delete(7) of a present key reported absent")
	}
	delete(want, 7)
	if n := insert(c, 7, v+1); once && n == 0 {
		t.Error("Insert after Read and Delete of its key made no walk")
	}
	s.Commit()

	// A Read that misses, then an Insert, links a new node.
	s.Prepare(1)
	s.Reset()
	c = &countingOps{Ops: direct}
	read(c, absent+1)
	insert(c, absent+1, 9)
	s.Commit()

	s.Prepare(0)
	s.Reset()
	c = &countingOps{Ops: direct}
	for k := uint64(0); k < 2*keys; k++ {
		read(c, k)
	}
	read(c, absent)
	read(c, absent+1)
	s.Commit()
	if err := in.Backend.Check(); err != nil {
		t.Fatal(err)
	}
}

// checkModelChurn runs randomized single-threaded churn against a model
// map and compares the full keyspace at the end.
func checkModelChurn(t *testing.T, mk Maker) {
	const keys, rounds = 48, 600
	in := mk(t, keys, 1)
	defer in.Cleanup()
	engine.Populate(in.Backend, spec(keys))
	s := in.Backend.NewSession()
	model := map[uint64]uint64{}
	for k := uint64(0); k < keys; k++ {
		model[k] = engine.InitialValue(k)
	}

	r := rng.New(7)
	for i := 0; i < rounds; i++ {
		key := uint64(r.Intn(keys * 2)) // half the draws miss/insert fresh
		s.Prepare(1)
		in.Sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
			s.Reset()
			switch r.Intn(4) {
			case 0:
				v, ok := s.Read(ops, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					t.Fatalf("round %d: Read(%d) = (%d, %v), model (%d, %v)", i, key, v, ok, mv, mok)
				}
			case 1:
				s.Insert(ops, key, uint64(i))
				model[key] = uint64(i)
			case 2:
				got := s.Delete(ops, key)
				_, want := model[key]
				if got != want {
					t.Fatalf("round %d: Delete(%d) = %v, model %v", i, key, got, want)
				}
				delete(model, key)
			case 3:
				v, _ := s.Read(ops, key)
				s.Insert(ops, key, v+1)
				model[key] = v + 1
			}
		})
		s.Commit()
	}

	s.Prepare(0)
	s.Reset()
	ops := in.Backend.Direct()
	for k := uint64(0); k < keys*2; k++ {
		v, ok := s.Read(ops, k)
		mv, mok := model[k]
		if ok != mok || (ok && v != mv) {
			t.Fatalf("final sweep: key %d = (%d, %v), model (%d, %v)", k, v, ok, mv, mok)
		}
	}
	s.Commit()
	if err := in.Backend.Check(); err != nil {
		t.Fatal(err)
	}
}

// checkConcurrentDriver runs the declarative driver over the backend
// with several threads and verifies structural invariants afterwards.
func checkConcurrentDriver(t *testing.T, mk Maker) {
	const keys, threads, perThread = 256, 4, 150
	in := mk(t, keys, threads)
	defer in.Cleanup()
	sp := spec(keys)
	engine.Populate(in.Backend, sp)
	d, err := engine.New(sp, in.Backend)
	if err != nil {
		t.Fatal(err)
	}
	r := harness.RunOps(in.Sys, threads, perThread, d.Workers(in.Sys))
	if r.Stats.Commits < uint64(threads*perThread) {
		t.Fatalf("commits = %d, want ≥ %d", r.Stats.Commits, threads*perThread)
	}
	if err := in.Backend.Check(); err != nil {
		t.Fatal(err)
	}
}
