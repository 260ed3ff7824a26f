package server_test

import (
	"sync"
	"testing"
	"time"

	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// drive runs workers async sessions committing small transactions in a
// loop until stop is closed — background traffic for the controller to
// observe.
func drive(t *testing.T, rb *engine.RemoteBackend, workers int, stop chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		s := rb.NewSession().(engine.AsyncSession)
		key := uint64(w * 7)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Reset()
				s.ReadModifyWriteAsync(key%64, 1)
				s.ReadAsync((key + 1) % 64)
				s.Commit()
				key++
			}
		}()
	}
	return &wg
}

// waitStats polls the server's stats until cond holds or the deadline
// passes, returning the last snapshot.
func waitStats(t *testing.T, rb *engine.RemoteBackend, d time.Duration, cond func(wire.ServerStats) bool) (wire.ServerStats, bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		st, err := rb.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return st, true
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestControllerBacksOffOverTarget: with every batch taking ≥1ms, a 1ms
// p99 target is unreachable, so the controller must retreat — grace
// period to zero first, then the batch bound down to 1.
func TestControllerBacksOffOverTarget(t *testing.T) {
	f := startFixture(t, 64, 1, 64, time.Millisecond, false)
	rb := dial(t, f, 2)

	if err := rb.Ctrl(wire.Ctrl{AdmitWaitUs: 400, P99TargetUs: 1000}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg := drive(t, rb, 8, stop)
	st, ok := waitStats(t, rb, 5*time.Second, func(st wire.ServerStats) bool {
		return st.BatchMax == 1 && st.AdmitWaitUs == 0
	})
	close(stop)
	wg.Wait()
	if !ok {
		t.Fatalf("controller did not back off: batch_max=%d admit_wait_us=%d after %d epochs (%d adjusts)",
			st.BatchMax, st.AdmitWaitUs, st.CtrlEpochs, st.CtrlAdjusts)
	}
	if st.P99TargetUs != 1000 {
		t.Fatalf("p99_target_us = %d, want 1000", st.P99TargetUs)
	}
	if st.CtrlAdjusts == 0 {
		t.Fatal("controller reports zero adjustments after backing off")
	}
}

// TestControllerGrowsBatchWithHeadroom: sub-millisecond service times
// against a 50ms target leave plenty of headroom, so the controller
// must grow the batch bound from its floor of 1.
func TestControllerGrowsBatchWithHeadroom(t *testing.T) {
	f := startFixture(t, 64, 1, 1, 0, false)
	rb := dial(t, f, 2)

	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: 50_000}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg := drive(t, rb, 8, stop)
	st, ok := waitStats(t, rb, 5*time.Second, func(st wire.ServerStats) bool {
		return st.BatchMax > 1
	})
	close(stop)
	wg.Wait()
	if !ok {
		t.Fatalf("controller never grew batch_max past 1 (%d epochs, %d adjusts)", st.CtrlEpochs, st.CtrlAdjusts)
	}
}

// TestControllerDisable: a negative target stops the controller and the
// knobs freeze where they are.
func TestControllerDisable(t *testing.T) {
	f := startFixture(t, 64, 1, 8, 0, false)
	rb := dial(t, f, 1)

	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: 10_000}); err != nil {
		t.Fatal(err)
	}
	st, err := rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.P99TargetUs != 10_000 {
		t.Fatalf("p99_target_us = %d, want 10000", st.P99TargetUs)
	}
	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: -1}); err != nil {
		t.Fatal(err)
	}
	st, err = rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.P99TargetUs != 0 {
		t.Fatalf("p99_target_us = %d after disable, want 0", st.P99TargetUs)
	}
	frozen := st.BatchMax

	// The frozen knob is still manually adjustable.
	if err := rb.Ctrl(wire.Ctrl{BatchMax: frozen + 1}); err != nil {
		t.Fatal(err)
	}
	st, err = rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchMax != frozen+1 {
		t.Fatalf("batch_max = %d after manual set, want %d", st.BatchMax, frozen+1)
	}

	// An absurd target is rejected.
	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: int(2 * time.Minute / time.Microsecond)}); err == nil {
		t.Fatal("2-minute p99 target accepted, want error")
	}
}

// TestControllerStopsAtDrain: draining while the controller runs must
// stop it cleanly (no goroutine left adjusting a drained server).
func TestControllerStopsAtDrain(t *testing.T) {
	f := startFixture(t, 64, 1, 8, 0, false)
	rb := dial(t, f, 1)
	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: 10_000}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		f.srv.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete with controller running")
	}
}
