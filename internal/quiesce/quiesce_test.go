package quiesce

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sgl"
	"sihtm/internal/stats"
	"sihtm/internal/topology"
)

func TestNowIsMonotonic(t *testing.T) {
	var s slot
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		now := s.now()
		if now <= prev {
			t.Fatalf("now() = %d, want > %d", now, prev)
		}
		prev = now
	}
}

func TestNowNeverReturnsReservedValues(t *testing.T) {
	var s slot
	for i := 0; i < 100; i++ {
		if now := s.now(); now == inactive || now == completed {
			t.Fatalf("now() returned reserved value %d", now)
		}
	}
}

func TestFirstTick(t *testing.T) {
	var s slot
	if got := s.now(); got != completed+1 {
		t.Fatalf("first now() = %d, want %d", got, completed+1)
	}
}

// TestConcurrentTicksAreUnique ticks every slot of one array from its
// own goroutine at once: each slot's stamps stay unique and rising,
// whatever its neighbours do, because only its owner advances it.
// Stamps of different slots may be equal; nothing compares them.
func TestConcurrentTicksAreUnique(t *testing.T) {
	const goroutines = 8
	const perGoroutine = 2000
	a := New(nil, goroutines, 0)
	var wg sync.WaitGroup
	results := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]uint64, perGoroutine)
			for i := range out {
				out[i] = a.slots[g].now()
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range results {
		for i, ts := range out {
			if want := completed + 1 + uint64(i); ts != want {
				t.Fatalf("slot %d tick %d = %d, want %d", g, i, ts, want)
			}
		}
	}
}

// TestSafetyWaitNeedsOnlyEquality pins why per-thread stamps suffice:
// two threads whose slots hold the same stamp value, and a completed
// transaction waits on its peer until the peer's slot changes, whether
// the peer exits or exits and begins again with its next stamp.
func TestSafetyWaitNeedsOnlyEquality(t *testing.T) {
	for _, reenter := range []bool{false, true} {
		name := "exit"
		if reenter {
			name = "exit-then-enter"
		}
		t.Run(name, func(t *testing.T) {
			m := htm.NewMachine(memsim.NewHeapLines(64), htm.Config{Topology: topology.New(2, 1)})
			a := New(sgl.New(m), 2, 0)
			col := stats.New(2)
			a.Enter(1, m.Thread(1))
			a.Enter(0, m.Thread(0))
			if v0, v1 := a.slots[0].v.Load(), a.slots[1].v.Load(); v0 != v1 {
				t.Fatalf("first stamps differ (%d, %d); the test needs them equal", v0, v1)
			}
			tx := m.Thread(0).Begin(htm.ModeROT)
			var done atomic.Bool
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				a.CompleteAndWait(0, tx, col.Thread(0))
				done.Store(true)
			}()
			// The waiter stores completed just before it snapshots; give
			// it time to take the snapshot and start waiting.
			for a.slots[0].v.Load() != completed {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			if done.Load() {
				t.Fatal("the safety wait returned while its peer was still in the transaction it saw")
			}
			a.Exit(1)
			if reenter {
				a.Enter(1, m.Thread(1))
			}
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("the safety wait did not end after its peer's slot changed")
			}
			tx.Commit()
			a.Exit(0)
			if reenter {
				a.Exit(1)
			}
		})
	}
}
