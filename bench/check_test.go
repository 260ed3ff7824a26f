package main

import (
	"strings"
	"testing"
)

// fakeBackend is a benchmark-local engine.Backend over a Go map. With
// dropNth set it silently loses the n-th update — the fault check 2
// exists to catch. A check that cannot fail proves nothing.
type fakeBackend struct {
	vals    map[uint64]uint64
	dropNth int
	updates int
}

func newFakeBackend(keys int) *fakeBackend {
	b := &fakeBackend{vals: map[uint64]uint64{}}
	for k := 0; k < keys; k++ {
		b.vals[uint64(k)] = InitialValue(uint64(k))
	}
	return b
}

type fakeOps struct{}

func (fakeOps) Read(Addr) uint64   { return 0 }
func (fakeOps) Write(Addr, uint64) {}

func (b *fakeBackend) Name() string        { return "fake" }
func (b *fakeBackend) NewSession() Session { return fakeSession{b} }
func (b *fakeBackend) Direct() Ops         { return fakeOps{} }
func (b *fakeBackend) Check() error        { return nil }

type fakeSession struct{ b *fakeBackend }

func (fakeSession) Prepare(int) {}
func (fakeSession) Reset()      {}
func (fakeSession) Commit()     {}

func (s fakeSession) Read(_ Ops, key uint64) (uint64, bool) {
	v, ok := s.b.vals[key]
	return v, ok
}

func (s fakeSession) Insert(_ Ops, key, value uint64) bool {
	s.b.updates++
	if s.b.updates == s.b.dropNth {
		return false // acknowledged, never stored
	}
	_, had := s.b.vals[key]
	s.b.vals[key] = value
	return !had
}

func (s fakeSession) Delete(_ Ops, key uint64) bool {
	_, had := s.b.vals[key]
	delete(s.b.vals, key)
	return had
}

func (s fakeSession) Scan(Ops, uint64, int) int { return 0 }

// rmw runs n read-modify-writes the way the workloads do.
func rmw(b Backend, keys, n int) {
	s, ops := b.NewSession(), b.Direct()
	for i := 0; i < n; i++ {
		key := uint64(i*7) % uint64(keys)
		v, _ := s.Read(ops, key)
		s.Insert(ops, key, v+1)
	}
}

func TestNoLostUpdateCheckCatchesADroppedUpdate(t *testing.T) {
	const keys, n = 64, 1000

	honest := newFakeBackend(keys)
	rmw(honest, keys, n)
	if err := checkNoLostUpdate(honest, keys, n, n); err != nil {
		t.Fatalf("honest backend: %v", err)
	}
	// Over the wire the count is only bounded: acknowledged <= committed <= sent.
	if err := checkNoLostUpdate(honest, keys, n-3, n+5); err != nil {
		t.Fatalf("honest backend, bounded count: %v", err)
	}

	lossy := newFakeBackend(keys)
	lossy.dropNth = 500
	rmw(lossy, keys, n)
	err := checkNoLostUpdate(lossy, keys, n, n)
	if err == nil {
		t.Fatal("one update of 1000 was dropped and check 2 passed")
	}
	if !strings.Contains(err.Error(), "grew by 999") {
		t.Errorf("error does not say what was found: %v", err)
	}
	// A duplicated update is as wrong as a lost one.
	if err := checkNoLostUpdate(honest, keys, n-2, n-1); err == nil {
		t.Error("more growth than RMWs committed and check 2 passed")
	}
}

func TestStructureCheckCatchesLostAndExtraKeys(t *testing.T) {
	const keys = 32
	b := newFakeBackend(keys)
	size := func() int { return len(b.vals) }
	if err := checkStructure(b, keys, size); err != nil {
		t.Fatalf("intact backend: %v", err)
	}
	b.vals[1000] = 1
	if err := checkStructure(b, keys, size); err == nil {
		t.Error("an extra key went unnoticed")
	}
	delete(b.vals, 1000)
	delete(b.vals, 5)
	if err := checkStructure(b, keys, size); err == nil || !strings.Contains(err.Error(), "key 5 lost") {
		t.Errorf("a lost key went unnoticed: %v", err)
	}
}

func TestCompareHeaps(t *testing.T) {
	a, b := newHeapLines(4), newHeapLines(4)
	if err := compareHeaps("test", a, b); err != nil {
		t.Fatal(err)
	}
	b.Store(17, 3)
	if err := compareHeaps("test", a, b); err == nil || !strings.Contains(err.Error(), "word 17") {
		t.Errorf("differing word not reported: %v", err)
	}
	if err := compareHeaps("test", a, newHeapLines(5)); err == nil {
		t.Error("heaps of different sizes compared equal")
	}
}
