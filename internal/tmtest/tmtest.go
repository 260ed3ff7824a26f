// Package tmtest is a reusable conformance suite for tm.System
// implementations. Every concurrency control in the repository — SI-HTM
// and all baselines — must pass the isolation properties it encodes;
// serializable systems additionally must forbid the write skew that
// snapshot isolation admits (and SI-HTM's tests assert the skew is
// observable, since exhibiting SI rather than serializability is the
// paper's point).
package tmtest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/silo"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// Factory describes a system under test.
type Factory struct {
	// Name labels subtests.
	Name string
	// Serializable reports whether the system promises full
	// serializability (true for all but SI-HTM, which promises SI).
	Serializable bool
	// New builds a fresh system over heap for the given thread count.
	New func(heap *memsim.Heap, threads int) tm.System
}

// testTopology is the default machine for conformance tests: 4 cores ×
// SMT-2 = 8 hardware threads.
func testTopology() topology.Topology { return topology.New(4, 2) }

func newMachine(heap *memsim.Heap, tmcamLines int) *htm.Machine {
	return htm.NewMachine(heap, htm.Config{Topology: testTopology(), TMCAMLines: tmcamLines})
}

// StandardFactories returns one factory per system, configured with the
// given TMCAM size (0 = hardware default of 64 lines).
func StandardFactories(tmcamLines int) []Factory {
	return []Factory{
		{Name: "sgl", Serializable: true, New: func(h *memsim.Heap, n int) tm.System {
			return sgl.NewSystem(newMachine(h, tmcamLines), n)
		}},
		{Name: "htm", Serializable: true, New: func(h *memsim.Heap, n int) tm.System {
			return htmtm.NewSystem(newMachine(h, tmcamLines), n, htmtm.Config{})
		}},
		{Name: "si-htm", Serializable: false, New: func(h *memsim.Heap, n int) tm.System {
			return sihtm.NewSystem(newMachine(h, tmcamLines), n, sihtm.Config{})
		}},
		{Name: "p8tm", Serializable: true, New: func(h *memsim.Heap, n int) tm.System {
			return p8tm.NewSystem(newMachine(h, tmcamLines), n, p8tm.Config{})
		}},
		{Name: "silo", Serializable: true, New: func(h *memsim.Heap, n int) tm.System {
			return silo.NewSystem(newMachine(h, tmcamLines), n)
		}},
	}
}

// CheckCounter runs concurrent read-modify-write increments on one shared
// word and asserts no update is lost. Lost updates are forbidden by
// serializability and by SI alike (write-write conflicts must abort), so
// every system must pass.
func CheckCounter(t *testing.T, sys tm.System, threads, perThread int, x memsim.Addr, heap *memsim.Heap) {
	t.Helper()
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					ops.Write(x, ops.Read(x)+1)
				})
			}
		}(id)
	}
	wg.Wait()
	want := uint64(threads * perThread)
	if got := heap.Load(x); got != want {
		t.Errorf("%s: counter = %d, want %d (lost updates)", sys.Name(), got, want)
	}
	s := sys.Collector().Snapshot()
	if s.Commits != want {
		t.Errorf("%s: commits = %d, want %d", sys.Name(), s.Commits, want)
	}
}

// CheckSnapshotConsistency has writers atomically increment a pair of
// words on distinct cache lines (keeping x == y) while read-only
// transactions assert the pair is never observed torn. Both SI and
// serializability forbid a torn snapshot.
func CheckSnapshotConsistency(t *testing.T, sys tm.System, heap *memsim.Heap, x, y memsim.Addr, rounds int) {
	t.Helper()
	const writers = 2
	const readers = 2
	var torn atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					v := ops.Read(x)
					ops.Write(x, v+1)
					ops.Write(y, v+1)
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var a, b uint64
				sys.Atomic(id, tm.KindReadOnly, func(ops tm.Ops) {
					a = ops.Read(x)
					b = ops.Read(y)
				})
				if a != b {
					torn.Store(true)
					return
				}
			}
		}(writers + r)
	}
	wg.Wait()
	if torn.Load() {
		t.Errorf("%s: read-only transaction observed torn snapshot", sys.Name())
	}
	if gx, gy := heap.Load(x), heap.Load(y); gx != uint64(writers*rounds) || gx != gy {
		t.Errorf("%s: final pair (%d,%d), want (%d,%d)", sys.Name(), gx, gy, writers*rounds, writers*rounds)
	}
}

// CheckWriteSkew runs the classic write-skew anomaly with a barrier that
// forces both transactions to read before either writes:
//
//	t1: if x+y == 0 { x = 1 }        t2: if x+y == 0 { y = 1 }
//
// Serializable systems must end each round with x+y <= 1. Snapshot
// isolation admits x+y == 2. Returns how many of the rounds exhibited the
// skew so SI callers can assert it actually occurred.
func CheckWriteSkew(t *testing.T, sys tm.System, heap *memsim.Heap, x, y memsim.Addr, rounds int, serializable bool) (skews int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		heap.Store(x, 0)
		heap.Store(y, 0)
		var phase atomic.Int32 // counts transactions that finished reading
		var wg sync.WaitGroup
		run := func(id int, own memsim.Addr) {
			defer wg.Done()
			sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
				sum := ops.Read(x) + ops.Read(y)
				phase.Add(1)
				// Wait (bounded) for the peer to finish reading, so the
				// reads of both transactions overlap. Bounded so that a
				// serializable system that kills the peer cannot deadlock
				// this barrier; yielding so the peer gets scheduled even on
				// a single-CPU host.
				for spin := 0; phase.Load() < 2 && spin < 1<<16; spin++ {
					runtime.Gosched()
				}
				if sum == 0 {
					ops.Write(own, 1)
				}
			})
		}
		wg.Add(2)
		go run(0, x)
		go run(1, y)
		wg.Wait()
		if got := heap.Load(x) + heap.Load(y); got == 2 {
			skews++
			if serializable {
				t.Errorf("%s: write skew on round %d (x+y == 2) under a serializable system", sys.Name(), round)
				return skews
			}
		}
	}
	return skews
}

// CheckReadPromotion repeats the write-skew rounds with the paper's §2.1
// fix: the problematic read is promoted into the write set, which turns
// the skew into a write-write conflict that SI must abort. No system may
// exhibit the skew.
func CheckReadPromotion(t *testing.T, sys tm.System, heap *memsim.Heap, x, y memsim.Addr, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		heap.Store(x, 0)
		heap.Store(y, 0)
		var phase atomic.Int32
		var wg sync.WaitGroup
		run := func(id int, own, other memsim.Addr) {
			defer wg.Done()
			sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
				vOther := ops.Read(other)
				ops.Write(other, vOther) // read promotion
				sum := ops.Read(own) + vOther
				phase.Add(1)
				for spin := 0; phase.Load() < 2 && spin < 1<<16; spin++ {
					runtime.Gosched()
				}
				if sum == 0 {
					ops.Write(own, 1)
				}
			})
		}
		wg.Add(2)
		go run(0, x, y)
		go run(1, y, x)
		wg.Wait()
		if got := heap.Load(x) + heap.Load(y); got == 2 {
			t.Errorf("%s: write skew despite read promotion (round %d)", sys.Name(), round)
			return
		}
	}
}

// CheckRepeatableRead scripts Figure 3's anomaly attempt: a transaction
// reads x, a concurrent writer transaction commits x, and the first
// transaction reads x again. SI forbids observing two different values.
// The writer's Atomic necessarily blocks until the reader finishes (that
// is the safety wait), so the writer runs on its own goroutine.
func CheckRepeatableRead(t *testing.T, sys tm.System, heap *memsim.Heap, x memsim.Addr) {
	t.Helper()
	heap.Store(x, 0)
	var started atomic.Bool
	// mismatch is only meaningful for the attempt that actually commits;
	// optimistic systems (Silo) may expose inconsistent reads in attempts
	// they subsequently abort and retry.
	var first, second uint64
	var mismatch bool

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		attempts := 0
		sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
			attempts++
			if attempts > 1 {
				// A single-version SI implementation is allowed to resolve
				// the conflict by killing one side; on retry just read once.
				first = ops.Read(x)
				second = first
				mismatch = false
				return
			}
			first = ops.Read(x)
			started.Store(true)
			// Give the writer time to run its body and enter its commit
			// phase; it must not become visible while we are active.
			time.Sleep(20 * time.Millisecond)
			second = ops.Read(x)
			mismatch = first != second
		})
	}()
	go func() {
		defer wg.Done()
		for !started.Load() {
			runtime.Gosched()
		}
		sys.Atomic(1, tm.KindUpdate, func(ops tm.Ops) {
			ops.Write(x, ops.Read(x)+1)
		})
	}()
	wg.Wait()
	if mismatch {
		t.Errorf("%s: non-repeatable read: first=%d second=%d", sys.Name(), first, second)
	}
}

// CheckFallback forces the SGL fall-back by running an update transaction
// whose write set exceeds the TMCAM; the transaction must still commit
// (through the serial path) with its writes intact.
func CheckFallback(t *testing.T, sys tm.System, heap *memsim.Heap, lines []memsim.Addr) {
	t.Helper()
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
		for i, a := range lines {
			ops.Write(a, uint64(i)+1)
		}
	})
	for i, a := range lines {
		if got := heap.Load(a); got != uint64(i)+1 {
			t.Errorf("%s: line %d = %d, want %d", sys.Name(), i, got, i+1)
		}
	}
	s := sys.Collector().Snapshot()
	if s.Commits != 1 {
		t.Errorf("%s: commits = %d, want 1", sys.Name(), s.Commits)
	}
}

// CheckTransfers runs a random transfer matrix: `threads` workers move
// random amounts between `accounts` accounts (update transactions) while
// read-only audits sum all balances. Both SI and serializability require
// that every audit observes the exact conserved total and that the final
// balances sum to the initial total.
func CheckTransfers(t *testing.T, sys tm.System, heap *memsim.Heap, accounts []memsim.Addr, threads, opsPerThread int) {
	t.Helper()
	const initial = 1000
	for _, a := range accounts {
		heap.Store(a, initial)
	}
	total := uint64(len(accounts)) * initial

	var badAudit atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := uint64(id)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int((seed >> 33) % uint64(n))
			}
			for i := 0; i < opsPerThread; i++ {
				if i%8 == 7 { // audit
					var sum uint64
					sys.Atomic(id, tm.KindReadOnly, func(ops tm.Ops) {
						sum = 0
						for _, a := range accounts {
							sum += ops.Read(a)
						}
					})
					if sum != total {
						badAudit.Store(true)
						return
					}
					continue
				}
				from := accounts[next(len(accounts))]
				to := accounts[next(len(accounts))]
				amount := uint64(next(17))
				sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					f := ops.Read(from)
					if f < amount {
						return
					}
					ops.Write(from, f-amount)
					if to != from {
						ops.Write(to, ops.Read(to)+amount)
					} else {
						ops.Write(from, f) // self-transfer: restore
					}
				})
			}
		}(id)
	}
	wg.Wait()
	if badAudit.Load() {
		t.Errorf("%s: read-only audit observed a non-conserved total", sys.Name())
	}
	var sum uint64
	for _, a := range accounts {
		sum += heap.Load(a)
	}
	if sum != total {
		t.Errorf("%s: final total %d, want %d (money created or destroyed)", sys.Name(), sum, total)
	}
}

// CheckReadOnlyWritePanics asserts systems with an uninstrumented
// read-only path reject writes in transactions declared read-only.
func CheckReadOnlyWritePanics(t *testing.T, sys tm.System, x memsim.Addr) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: Write in read-only transaction did not panic", sys.Name())
		}
	}()
	sys.Atomic(0, tm.KindReadOnly, func(ops tm.Ops) {
		ops.Write(x, 1)
	})
}

// CheckPanicLeavesNothingAnnounced asserts that a body panic which is not
// a hardware abort — a caller bug, such as a Write inside a transaction
// declared read-only — unwinds out of Atomic leaving the thread neither
// announced in the quiescence state nor inside a live hardware
// transaction. Otherwise every peer's safety wait and the lock holder's
// drain spin until that thread's next transaction. lines must overflow
// the machine's TMCAM when written together, so the second transaction
// below takes the SGL fall-back.
func CheckPanicLeavesNothingAnnounced(t *testing.T, sys tm.System, heap *memsim.Heap, lines []memsim.Addr) {
	t.Helper()
	for _, kind := range []tm.Kind{tm.KindReadOnly, tm.KindUpdate} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: %s body panic did not propagate", sys.Name(), kind)
				}
			}()
			sys.Atomic(0, kind, func(ops tm.Ops) {
				ops.Write(lines[0], 1) // panics by itself when read-only
				panic("caller bug")
			})
		}()
		for _, a := range lines {
			heap.Store(a, 0)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			sys.Atomic(1, tm.KindUpdate, func(ops tm.Ops) { // safety wait
				ops.Write(lines[1], ops.Read(lines[1])+1)
			})
			sys.Atomic(1, tm.KindUpdate, func(ops tm.Ops) { // fall-back drain
				for _, a := range lines {
					ops.Write(a, ops.Read(a)+1)
				}
			})
			sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) { // no zombie ROT
				ops.Write(lines[0], ops.Read(lines[0])+1)
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: transactions after a %s body panic did not complete; the panicking thread is still announced",
				sys.Name(), kind)
		}
		if got := heap.Load(lines[0]); got != 2 {
			t.Errorf("%s: after %s panic, word = %d, want 2", sys.Name(), kind, got)
		}
	}
	if s := sys.Collector().Snapshot(); s.Fallbacks != 2 {
		t.Errorf("%s: fall-backs = %d, want 2", sys.Name(), s.Fallbacks)
	}
}
