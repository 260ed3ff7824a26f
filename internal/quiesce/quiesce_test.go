package quiesce

import (
	"sync"
	"testing"
)

func TestNowIsMonotonic(t *testing.T) {
	var a Array
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		now := a.now()
		if now <= prev {
			t.Fatalf("now() = %d, want > %d", now, prev)
		}
		prev = now
	}
}

func TestNowNeverReturnsReservedValues(t *testing.T) {
	var a Array
	for i := 0; i < 100; i++ {
		if now := a.now(); now == inactive || now == completed {
			t.Fatalf("now() returned reserved value %d", now)
		}
	}
}

func TestFirstTick(t *testing.T) {
	var a Array
	if got := a.now(); got != completed+1 {
		t.Fatalf("first now() = %d, want %d", got, completed+1)
	}
}

func TestConcurrentTicksAreUnique(t *testing.T) {
	const goroutines = 8
	const perGoroutine = 2000
	var a Array
	var wg sync.WaitGroup
	results := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]uint64, perGoroutine)
			for i := range out {
				out[i] = a.now()
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*perGoroutine)
	for _, out := range results {
		for _, ts := range out {
			if seen[ts] {
				t.Fatalf("timestamp %d issued twice", ts)
			}
			seen[ts] = true
		}
	}
	if len(seen) != goroutines*perGoroutine {
		t.Fatalf("issued %d unique timestamps, want %d", len(seen), goroutines*perGoroutine)
	}
}
