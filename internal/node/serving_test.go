package node

import (
	"fmt"
	"testing"
	"time"

	"sihtm/internal/loadgen"
	"sihtm/internal/netchaos"
	"sihtm/internal/replica"
	"sihtm/internal/wire"
	"sihtm/internal/workload/ycsb"
)

// The tests in this file drive a node the way its clients do at scale:
// an open-loop connection ladder against the admission controller, and
// a follower promoted after its leader dies mid-load under a faulty
// replication network.

// quiesce waits until the node's executors stop consuming ops, so one
// rung's backlog is gone before the next rung starts.
func quiesce(t *testing.T, n *Node) {
	t.Helper()
	prev, settled := n.Srv.Snapshot().BatchedOps, 0
	waitFor(t, "the executors to drain their backlog", func() bool {
		time.Sleep(10 * time.Millisecond)
		ops := n.Srv.Snapshot().BatchedOps
		if ops == prev {
			settled++
		} else {
			prev, settled = ops, 0
		}
		return settled >= 2
	})
}

// TestConnScaleLadder walks an open-loop connection ladder, 32, 128 and
// 512 connections each offering 100 requests a second, on two nodes: one
// with the admission controller off and aggressive fixed knobs (batch
// 256, 10 ms grace: batches pushed over the TMCAM as queues build), and
// one with the controller steering toward a 5 ms p99 from batch 32.
// Every rung must answer without an error reply, answer something, and
// report the knobs it ran with over STATS; after each node's drain the
// map must pass its check and keep its population. The controller steers
// batches against the TMCAM, so the ladder runs on si-htm.
func TestConnScaleLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("six half-second open-loop windows, up to 512 connections")
	}
	t.Run("si-htm", func(t *testing.T) { connScaleLadder(t, "si-htm") })
}

// connScaleLadder is one TestConnScaleLadder case, the nodes running
// system.
func connScaleLadder(t *testing.T, system string) {
	const targetUs = 5000
	for _, ctrlOn := range []bool{false, true} {
		cfg := systemConfig(system)
		if ctrlOn {
			// The moderate defaults the controller adapts from.
			cfg.Server.BatchMax, cfg.Server.P99Target = 32, targetUs*time.Microsecond
		} else {
			cfg.Server.BatchMax, cfg.Server.AdmitWait = 256, 10*time.Millisecond
		}
		n := mustStart(t, cfg)
		addr := n.Addr.String()
		rb := dial(t, n)
		for _, conns := range []int{32, 128, 512} {
			quiesce(t, n)
			rung := fmt.Sprintf("conns=%d ctrl=%v", conns, ctrlOn)
			var sv0, sv1 wire.ServerStats
			var serr error
			res, err := loadgen.Run(loadgen.Config{
				Addr:    addr,
				Conns:   conns,
				Arrival: loadgen.Arrival{Process: "poisson", Rate: 100 * float64(conns)},
				Keys:    testKeys,
				Warmup:  100 * time.Millisecond,
				Measure: 400 * time.Millisecond,
				Seed:    uint64(conns)*2654435761 + 1,
				AtWindow: func(start bool) {
					st, err := rb.Stats()
					if err != nil {
						serr = err
					} else if start {
						sv0 = st
					} else {
						sv1 = st
					}
				},
			})
			if err == nil {
				err = serr
			}
			if err != nil {
				t.Fatalf("%s: %v", rung, err)
			}
			if res.Errs > 0 || res.Replies == 0 {
				t.Fatalf("%s: %d replies, %d error replies", rung, res.Replies, res.Errs)
			}
			want, epochs := 0, sv1.CtrlEpochs-sv0.CtrlEpochs
			if ctrlOn {
				want = targetUs
			}
			if sv1.P99TargetUs != want {
				t.Fatalf("%s: STATS reports p99 target %dµs, want %dµs", rung, sv1.P99TargetUs, want)
			}
			if ctrlOn == (epochs == 0) {
				t.Fatalf("%s: the controller closed %d epochs in the window", rung, epochs)
			}
			t.Logf("%s: %.0f ops/s p50=%s p99=%s batch<=%d wait=%dµs", rung, res.Throughput,
				res.Hist.Quantile(0.5), res.Hist.Quantile(0.99), sv1.BatchMax, sv1.AdmitWaitUs)
		}
		if err := n.Shutdown(); err != nil {
			t.Fatal(err)
		}
		checkPopulation(t, fmt.Sprintf("after the ladder (ctrl=%v)", ctrlOn), cfg.Server.Backend)
	}
}

// TestPromotionUnderChaos kills a durable leader mid-load and promotes
// one of its two followers, both streaming through seeded fault-injecting
// dialers (cuts after 4–60 I/O calls, a quarter of them torn, partitions
// of 1–3 dials). The follower to be promoted loses its stream while the
// leader still acknowledges writes, so only the leader's log holds the
// tail it must recover. Promotion over the wire must reach the durable
// frontier at the kill (zero acknowledged loss) with the leader's heap
// word for word, the other follower must converge on it too, and the
// promoted node must then commit writes and still pass its check.
func TestPromotionUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("300 ms of writes under replication chaos, per system")
	}
	for _, system := range []string{"si-htm", "sgl"} {
		t.Run(system, func(t *testing.T) { promoteUnderChaos(t, system) })
	}
}

// promoteUnderChaos is one TestPromotionUnderChaos case, every node
// running system.
func promoteUnderChaos(t *testing.T, system string) {
	dir := t.TempDir()
	lcfg := durableOf(systemConfig(system), dir)
	leader := mustStart(t, lcfg)
	var fcfgs []Config
	var fols []*Node
	var dialers []*netchaos.Dialer
	for i := 0; i < 2; i++ {
		d := netchaos.NewDialer(leader.Addr.String(), netchaos.Config{
			Seed:        131 + uint64(i)*7919,
			CutAfterMin: 4, CutAfterMax: 60,
			TearProb:     0.25,
			PartitionMin: 1, PartitionMax: 3,
		})
		fcfg := systemConfig(system)
		fcfg.Follower = replica.FollowerConfig{Dial: d.Dial, ReadTimeout: 250 * time.Millisecond}
		fcfg.Server.LeaderLogPath = LogPath(dir)
		fcfgs, fols, dialers = append(fcfgs, fcfg), append(fols, mustStart(t, fcfg)), append(dialers, d)
	}
	promoted, other := fols[0], fols[1]

	stop := driveYCSB(t, dial(t, leader), ycsb.A, system, 4)
	time.Sleep(300 * time.Millisecond)
	promoted.Follower.Stop()
	cutAt := promoted.Follower.Watermark()
	waitFor(t, "acknowledged writes past the cut-off follower", func() bool {
		return leader.Store.DurableSeq() > cutAt+64
	})
	stop()
	// The kill point: every acknowledged commit is at or below the
	// durable frontier, and the log's valid prefix holds all of it.
	killSeq := leader.Store.DurableSeq()

	prb := dial(t, promoted)
	rs, err := prb.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if rs.Role != "promoted" {
		t.Fatalf("promoted follower reports role %q", rs.Role)
	}
	if rs.Watermark < killSeq {
		t.Fatalf("ACKED LOSS: promoted watermark %d < durable frontier %d at the kill", rs.Watermark, killSeq)
	}
	sameHeap(t, "promoted", lcfg.Machine.Heap(), fcfgs[0].Machine.Heap())
	if err := prb.Check(); err != nil {
		t.Fatalf("promoted state: %v", err)
	}
	if dialers[0].Cuts() == 0 && rs.Reconnects == 0 {
		t.Fatal("the chaos schedule never engaged (no cuts, no reconnects)")
	}
	if !other.Follower.WaitWatermark(killSeq, 10*time.Second) {
		t.Fatalf("other follower stuck at %d, frontier %d", other.Follower.Watermark(), killSeq)
	}
	other.Follower.Stop()
	sameHeap(t, "other follower", lcfg.Machine.Heap(), fcfgs[1].Machine.Heap())

	// The promoted node admits writes.
	updates := func() uint64 { st := promoted.Srv.Snapshot().Stats; return st.Commits - st.CommitsRO }
	before := updates()
	stopP := driveYCSB(t, prb, ycsb.A, system, 2)
	waitFor(t, "write commits on the promoted node", func() bool { return updates() > before })
	stopP()
	if err := prb.Check(); err != nil {
		t.Fatalf("post-promotion state: %v", err)
	}
	if err := promoted.Shutdown(); err != nil {
		t.Fatal(err)
	}
	checkPopulation(t, "promoted, after its writes", fcfgs[0].Server.Backend)
}
