package server

import (
	"time"

	"sihtm/internal/stats"
	"sihtm/internal/wire"
)

// The adaptive admission controller closes the loop the PR 5 batch
// sweep left open: growing batch_max amortizes framing and group-commit
// cost but pushes the coalesced transaction toward the TMCAM capacity
// cliff (batch 1→256: htm capacity aborts 0→6%, p50 10µs→1.2ms). The
// controller owns batch_max and admit_wait_us online, steering them by
// two observed signals per interval — the server-side p99 service
// latency (from the latency histogram: admission to the moment the reply
// may leave — its encoding on a volatile server, the end of its ack
// wait on a durable one, as Server.release observes it) and
// the capacity-abort share of transaction attempts (from the system's
// collector) — against a configured p99 target:
//
//   - p99 over target: back off, grace period first (it is pure added
//     latency), then halve the batch bound — multiplicative decrease.
//   - capacity-abort share over stats.CapacityShareMax: halve the batch
//     bound regardless of latency headroom — the footprint is at the
//     cliff, and retries are about to ruin both latency and throughput.
//   - p99 comfortably under target (≤ 80%): grow. While executors fill
//     their batches, additive-increase the bound; once batches run dry
//     below the bound, more batching needs more patience, so double the
//     grace period instead (bounded by a fraction of the target).
//
// Between 80% and 100% of target the controller holds — a deadband that
// stops it hunting. The asymmetry (additive increase, multiplicative
// decrease) is the classic AIMD shape: converge gently, retreat fast.

const (
	// ctrlInterval is the controller's sampling interval: each interval
	// differences the latency histogram and abort collector and makes at
	// most one knob move.
	ctrlInterval = 10 * time.Millisecond
	// ctrlMinWindowOps is the minimum histogram observations an interval
	// needs before its quantiles are trusted; thinner windows hold.
	ctrlMinWindowOps = 16
	// ctrlMinGrace is the smallest non-zero admission grace the
	// controller sets; backing off below it clears the grace entirely.
	ctrlMinGrace = 10 * time.Microsecond
)

// ctrlMaxGrace bounds the admission grace at a quarter of the latency
// target, capped at 1ms — the grace is spent on every dry-queue batch,
// so it must never be able to consume the latency budget by itself.
func ctrlMaxGrace(target time.Duration) time.Duration {
	g := target / 4
	if g > time.Millisecond {
		g = time.Millisecond
	}
	return g
}

// controller is the running control loop: Listen starts it when
// Config.P99Target is set, and Drain stops it.
type controller struct {
	s    *Server
	stop chan struct{}
	done chan struct{}
}

// run is the control loop: each interval differences the latency
// histogram, the abort collector and the batch counters, then makes at
// most one move per knob.
func (c *controller) run() {
	defer close(c.done)
	s := c.s
	tick := time.NewTicker(ctrlInterval)
	defer tick.Stop()
	prevHist := s.hist.Snapshot()
	prevStats := s.cfg.System.Collector().Snapshot()
	prevBatches := s.batches.Load()
	prevOps := s.batchedOps.Load()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		hist := s.hist.Snapshot()
		st := s.cfg.System.Collector().Snapshot()
		batches := s.batches.Load()
		ops := s.batchedOps.Load()
		wh := hist.Sub(prevHist)
		ws := st.Sub(prevStats)
		wBatches := batches - prevBatches
		wOps := ops - prevOps

		s.ctrlEpochs.Add(1)
		if wh.Count() < ctrlMinWindowOps {
			// Too thin to trust a p99 — keep accumulating into the same
			// window (prev snapshots stay put) so a slow server still
			// converges, just at a lower cadence.
			continue
		}
		prevHist, prevStats, prevBatches, prevOps = hist, st, batches, ops
		target := s.cfg.P99Target
		p99 := wh.Quantile(0.99)
		capShare := ws.AbortShare(stats.AbortCapacity)
		batch := int(s.batchMax.Load())
		wait := time.Duration(s.admitWait.Load())
		nbatch, nwait := batch, wait
		achieved := 0.0
		if wBatches > 0 {
			achieved = float64(wOps) / float64(wBatches)
		}

		switch {
		case p99 > target:
			if wait > 0 {
				nwait = wait / 2
				if nwait < ctrlMinGrace {
					nwait = 0
				}
			} else if batch > 1 {
				nbatch = batch / 2
			}
		case capShare > stats.CapacityShareMax:
			if batch > 1 {
				nbatch = batch / 2
			}
		case p99 <= target-target/5:
			if achieved >= 0.75*float64(batch) && batch < wire.MaxTxnOps {
				nbatch = batch + (batch+3)/4
				if nbatch > wire.MaxTxnOps {
					nbatch = wire.MaxTxnOps
				}
			} else if max := ctrlMaxGrace(target); wait < max {
				nwait = wait * 2
				if nwait < ctrlMinGrace {
					nwait = ctrlMinGrace
				}
				if nwait > max {
					nwait = max
				}
			}
		}

		if nbatch != batch {
			s.batchMax.Store(int64(nbatch))
			s.ctrlAdjusts.Add(1)
		}
		if nwait != wait {
			s.admitWait.Store(int64(nwait))
			s.ctrlAdjusts.Add(1)
		}
	}
}
