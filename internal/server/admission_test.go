package server_test

import (
	"sync"
	"testing"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/server"
	"sihtm/internal/sihtm"
	"sihtm/internal/topology"
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
	knobs := server.Config{BatchMax: 64, AdmitWait: 400 * time.Microsecond, P99Target: time.Millisecond}
	f := startFixtureStore(t, 64, 1, knobs, time.Millisecond, nil)
	rb := dial(t, f, 2)

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
	f := startFixtureStore(t, 64, 1, server.Config{BatchMax: 1, P99Target: 50 * time.Millisecond}, 0, nil)
	rb := dial(t, f, 2)

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

// TestControllerStopsAtDrain: draining while the controller runs must
// stop it cleanly (no goroutine left adjusting a drained server).
func TestControllerStopsAtDrain(t *testing.T) {
	f := startFixtureStore(t, 64, 1, server.Config{BatchMax: 8, P99Target: 10 * time.Millisecond}, 0, nil)
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

// TestNewRefusesOutOfRangeKnobs: the admission knobs are set once, at
// New, which refuses a value outside its range instead of running with
// another one; an accepted value is the one STATS reports. BatchMax 0
// means 16.
func TestNewRefusesOutOfRangeKnobs(t *testing.T) {
	heap := memsim.NewHeapLines(1 << 10)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	base := server.Config{
		Backend: engine.NewHashmapBackend(heap, 4),
		System:  sihtm.NewSystem(m, 1, sihtm.Config{}),
		Shards:  1,
	}
	refused := map[string]func(*server.Config){
		"batch -3":     func(c *server.Config) { c.BatchMax = -3 },
		"batch -4":     func(c *server.Config) { c.BatchMax = -4 },
		"batch max+1":  func(c *server.Config) { c.BatchMax = wire.MaxTxnOps + 1 },
		"batch 100000": func(c *server.Config) { c.BatchMax = 100000 },
		"grace -1µs":   func(c *server.Config) { c.AdmitWait = -time.Microsecond },
		"grace 2s":     func(c *server.Config) { c.AdmitWait = 2 * time.Second },
		"grace 5s":     func(c *server.Config) { c.AdmitWait = 5 * time.Second },
		"target -1µs":  func(c *server.Config) { c.P99Target = -time.Microsecond },
		"target 2min":  func(c *server.Config) { c.P99Target = 2 * time.Minute },
	}
	for name, edit := range refused {
		cfg := base
		edit(&cfg)
		if _, err := server.New(cfg); err == nil {
			t.Errorf("%s accepted, want an error", name)
		}
	}
	accepted := []struct {
		name   string
		edit   func(*server.Config)
		batch  int
		waitUs int
		tgtUs  int
	}{
		{"defaults", func(*server.Config) {}, 16, 0, 0},
		{"batch 128", func(c *server.Config) { c.BatchMax = 128 }, 128, 0, 0},
		{"batch max", func(c *server.Config) { c.BatchMax = wire.MaxTxnOps }, wire.MaxTxnOps, 0, 0},
		{"grace 250µs", func(c *server.Config) { c.AdmitWait = 250 * time.Microsecond }, 16, 250, 0},
		{"grace 1s", func(c *server.Config) { c.AdmitWait = time.Second }, 16, 1_000_000, 0},
		{"target 10ms", func(c *server.Config) { c.P99Target = 10 * time.Millisecond }, 16, 0, 10_000},
		{"target 60s", func(c *server.Config) { c.P99Target = time.Minute }, 16, 0, 60_000_000},
	}
	for _, a := range accepted {
		cfg := base
		a.edit(&cfg)
		srv, err := server.New(cfg)
		if err != nil {
			t.Errorf("%s refused: %v", a.name, err)
			continue
		}
		st := srv.Snapshot()
		if st.BatchMax != a.batch || st.AdmitWaitUs != a.waitUs || st.P99TargetUs != a.tgtUs {
			t.Errorf("%s: STATS report batch %d grace %dµs target %dµs, want %d %dµs %dµs",
				a.name, st.BatchMax, st.AdmitWaitUs, st.P99TargetUs, a.batch, a.waitUs, a.tgtUs)
		}
	}
}
