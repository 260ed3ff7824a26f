package experiments

import (
	"fmt"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/loadgen"
	"sihtm/internal/results"
	"sihtm/internal/stats"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// The connection-scale cell answers the question the closed-loop net
// entries cannot: what happens to the service layer as the *client
// population* grows, with each client offering load on its own clock?
// An open-loop generator (internal/loadgen) drives a ladder of
// connection counts at a fixed per-connection arrival rate, so total
// offered load scales with the ladder, and latency is recorded
// coordinated-omission-safely (charged from the scheduled arrival, not
// the eventual send).
//
// Every rung is measured twice: once with fixed, deliberately
// aggressive admission knobs (large batch bound + long grace — the
// throughput-greedy static choice, which drives coalesced transactions
// over the TMCAM capacity cliff as queues build), and once with the
// adaptive admission controller steering the same knobs against a p99
// target. The paired records show the controller holding tail latency
// while keeping the capacity-abort share below the uncontrolled
// configuration's worst case.

// connScaleShards is the executor count of the self-hosted server.
const connScaleShards = 4

// connScaleUncontrolledBatch / Grace are the fixed knobs of the
// uncontrolled baseline: the admission bound far past the 64-line
// TMCAM, with a grace long enough that the top rung's arrival rate
// alone fills batches over the capacity cliff (per-shard arrivals ×
// grace > the TMCAM write budget), independent of queue backlog —
// the throughput-greedy static choice, made deterministic.
const (
	connScaleUncontrolledBatch = 256
	connScaleUncontrolledGrace = 10000 // µs
)

// connScaleParams derives the ladder shape from the scale preset: the
// connection counts, the per-connection Poisson arrival rate (total
// offered load = conns × rate), and the controller's p99 target.
func connScaleParams(sc Scale) (ladder []int, perConn float64, target time.Duration) {
	// Per-connection rates are chosen so the ladder spans light load to
	// overload: the top rung offers more than the simulated server can
	// serve, which is where fixed aggressive knobs saturate their batch
	// bound and fall off the capacity cliff while the controller backs
	// the bound down.
	switch {
	case sc.WorkloadDiv >= 20: // ci
		return []int{32, 128, 512}, 100, 5 * time.Millisecond
	case sc.WorkloadDiv >= 4: // quick
		return []int{64, 256, 1024}, 100, 5 * time.Millisecond
	default: // paper
		return []int{128, 1024, 10240}, 50, 10 * time.Millisecond
	}
}

// connScaleWindows widens the scale preset's run windows for this
// cell: open-loop queueing is bistable near the capacity cliff, and a
// tens-of-milliseconds window can end before an overloaded rung's
// backlog tips the uncontrolled configuration over it. The floors give
// every rung time to reach its steady state (and the controller time
// to converge) without touching the preset used to size the workload.
func connScaleWindows(sc Scale) Scale {
	if sc.Warmup < 100*time.Millisecond {
		sc.Warmup = 100 * time.Millisecond
	}
	if sc.Measure < 400*time.Millisecond {
		sc.Measure = 400 * time.Millisecond
	}
	return sc
}

// connScaleCtrlInterval picks a controller cadence that fits many
// adjustment epochs inside the measurement window, clamped so a long
// window does not starve the loop of decisions.
func connScaleCtrlInterval(sc Scale) time.Duration {
	iv := sc.Measure / 16
	if iv < 2*time.Millisecond {
		iv = 2 * time.Millisecond
	}
	if iv > 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

// runOpenLoopPoint drives one open-loop measurement against a live
// server and merges it into a record: client-observed CO-safe latency
// and throughput, server-side abort taxonomy over exactly the client's
// window, and the admission knobs at window end. rb is an open
// control-plane connection to the same server; sysLabel labels the
// record's system column.
func runOpenLoopPoint(e Entry, rb *engine.RemoteBackend, addr, sysLabel string,
	keys, conns int, arrival loadgen.Arrival, sc Scale, traceEvery int) (results.Record, error) {
	var sv0, sv1 wire.ServerStats
	var werr error
	res, err := loadgen.Run(loadgen.Config{
		Addr:    addr,
		Conns:   conns,
		Arrival: arrival,
		Keys:    keys,
		Warmup:  sc.Warmup,
		Measure: sc.Measure,
		Seed:    uint64(conns)*2654435761 + 1,
		// Sampled trace ids ship to the server so its ring fills for
		// /debug/traces; no client ring here — `repro trace` merges the
		// server-side rings.
		TraceEvery: traceEvery,
		AtWindow: func(start bool) {
			st, serr := rb.Stats()
			if serr != nil {
				werr = serr
				return
			}
			if start {
				sv0 = st
			} else {
				sv1 = st
			}
		},
	})
	if err != nil {
		return results.Record{}, err
	}
	if werr != nil {
		return results.Record{}, werr
	}
	if res.Errs > 0 {
		return results.Record{}, fmt.Errorf("%d error replies from %s", res.Errs, addr)
	}

	srvDelta := sv1.Stats.Sub(sv0.Stats)
	merged := stats.Stats{
		// Client side: each successful reply is one completed operation.
		Commits: res.Replies,
		// Server side: the abort taxonomy of the batched transactions
		// that served the window.
		Aborts:    srvDelta.Aborts,
		Fallbacks: srvDelta.Fallbacks,
		WaitSpins: srvDelta.WaitSpins,
	}
	hr := harness.Result{
		System:     sysLabel,
		Threads:    conns,
		Elapsed:    res.Elapsed,
		Stats:      merged,
		Throughput: res.Throughput,
	}
	r := e.record("", hr)
	r.LatencyP50Us, r.LatencyP99Us = us(res.Hist.Quantile(0.5)), us(res.Hist.Quantile(0.99))
	if batches := sv1.Batches - sv0.Batches; batches > 0 {
		r.BatchAvgOps = float64(sv1.BatchedOps-sv0.BatchedOps) / float64(batches)
	}
	r.CtrlBatchMax = sv1.BatchMax
	r.CtrlAdmitWaitUs = sv1.AdmitWaitUs
	r.CtrlP99TargetUs = sv1.P99TargetUs
	return r, nil
}

// connScaleVariant configures one half of a rung's pair: controller off
// (fixed aggressive knobs) or on (adaptive against target).
func connScaleVariant(rb *engine.RemoteBackend, ctrlOn bool, target time.Duration) error {
	if ctrlOn {
		// Reset to the moderate defaults the controller adapts from.
		return rb.Ctrl(wire.Ctrl{
			BatchMax:    netBatchDefault,
			AdmitWaitUs: -1,
			P99TargetUs: int(target / time.Microsecond),
		})
	}
	// Stop the controller first so it cannot overwrite the manual knobs.
	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: -1}); err != nil {
		return err
	}
	return rb.Ctrl(wire.Ctrl{
		BatchMax:    connScaleUncontrolledBatch,
		AdmitWaitUs: connScaleUncontrolledGrace,
	})
}

// quiesceServer waits until the server's executors stop consuming ops
// — one rung's backlog must fully drain before the next rung's knobs
// apply and its window opens, or overload at one rung would pollute
// the next measurement.
func quiesceServer(rb *engine.RemoteBackend) error {
	deadline := time.Now().Add(30 * time.Second)
	var prev uint64
	settled := 0
	for {
		st, err := rb.Stats()
		if err != nil {
			return err
		}
		if st.BatchedOps == prev {
			settled++
			if settled >= 2 {
				return nil
			}
		} else {
			settled = 0
			prev = st.BatchedOps
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still executing a backlog after 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runConnScaleLadder measures the full ladder against one live server.
// keys is the populated keyspace; note may be nil.
func runConnScaleLadder(e Entry, addr, system string, keys int, sc Scale,
	hook func(results.Record), note func(string, ...any)) error {
	ladder, perConn, target := connScaleParams(sc)
	rb, err := engine.DialRemote(addr, 1)
	if err != nil {
		return err
	}
	defer rb.Close()
	for _, conns := range ladder {
		arrival := loadgen.Arrival{Process: "poisson", Rate: perConn * float64(conns)}
		for _, ctrlOn := range []bool{false, true} {
			if err := quiesceServer(rb); err != nil {
				return fmt.Errorf("net-connscale conns=%d: %w", conns, err)
			}
			if err := connScaleVariant(rb, ctrlOn, target); err != nil {
				return fmt.Errorf("net-connscale conns=%d: %w", conns, err)
			}
			label := system
			if ctrlOn {
				label += "+ctrl"
			}
			r, err := runOpenLoopPoint(e, rb, addr, label, keys, conns, arrival, sc, 0)
			if err != nil {
				return fmt.Errorf("net-connscale %s/conns=%d: %w", label, conns, err)
			}
			hook(r)
			if note != nil {
				note("  net-connscale %s conns=%d: %.0f ops/s p50=%.0fµs p99=%.0fµs batch<=%d wait=%dµs",
					label, conns, r.Throughput, r.LatencyP50Us, r.LatencyP99Us,
					r.CtrlBatchMax, r.CtrlAdmitWaitUs)
			}
		}
	}
	// Leave the server with the controller stopped and moderate knobs.
	if err := rb.Ctrl(wire.Ctrl{P99TargetUs: -1}); err != nil {
		return err
	}
	return rb.Ctrl(wire.Ctrl{BatchMax: netBatchDefault, AdmitWaitUs: -1})
}

// connScaleEntry is the net-connscale registry cell: self-hosts one
// loopback server, then walks the open-loop connection ladder with the
// admission controller off and on at every rung.
func connScaleEntry() Entry {
	e := Entry{
		ID:       "net-connscale",
		Title:    "Open-loop connection scale: CO-safe latency and throughput vs connection count, adaptive admission control vs fixed aggressive knobs",
		Workload: "net",
		Systems:  []string{"si-htm"},
		Params: fmt.Sprintf("ycsb-a over loopback, poisson arrivals per conn, shards=%d, uncontrolled batch=%d grace=%dµs",
			connScaleShards, connScaleUncontrolledBatch, connScaleUncontrolledGrace),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = connScaleWindows(sc)
		c, err := startCluster(clusterSpec{
			y: ycsbA, system: system, threads: connScaleShards,
			ctrlInterval: connScaleCtrlInterval(sc),
		}, sc)
		if err != nil {
			return err
		}
		defer c.close()
		if err := runConnScaleLadder(e, c.addr(), system, c.keys, sc, hook, nil); err != nil {
			return err
		}
		// verify drains and re-checks population conservation — the
		// GET/RMW mix must not have created or destroyed keys.
		return c.verify()
	}
	return e
}

// RunOpenLoop drives a single open-loop point against a live external
// server (the `repro loadgen --conns --arrival` path), leaving the
// server's admission knobs untouched.
func RunOpenLoop(addr string, conns int, arrival loadgen.Arrival, sc Scale, traceEvery int) (results.Record, error) {
	sc = sc.withDefaults()
	fail := func(err error) (results.Record, error) { return results.Record{}, err }
	rb, err := engine.DialRemote(addr, 1)
	if err != nil {
		return fail(err)
	}
	defer rb.Close()
	st, y, buildSc, err := servedBuild(rb, addr)
	if err != nil {
		return fail(err)
	}
	keys := y.keys(buildSc)
	label := st.System
	if st.P99TargetUs > 0 {
		label += "+ctrl"
	}
	return runOpenLoopPoint(connScaleEntry(), rb, addr, label, keys, conns, arrival, sc, traceEvery)
}
