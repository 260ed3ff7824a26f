package experiments

import (
	"fmt"
	"io"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/htm"
	"sihtm/internal/results"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// The net scenario entries measure the workload engine over the
// networked service layer: the same YCSB specs, driven through
// engine.RemoteBackend against a wire-protocol server whose admission
// stage coalesces pipelined client transactions into size-bounded
// hardware transactions. Throughput and commits are measured
// client-side; the abort taxonomy, the achieved batch size and the
// per-op latency percentiles come from the server's statistics,
// differenced over the measurement window.
//
// Each registry cell self-hosts a loopback server, so `repro run`
// covers the whole layer hermetically; `repro loadgen` reuses the same
// point runner against an external `repro serve` address.

// netBatchDefault is the admission bound (ops per transaction) of the
// net-ycsb-a and net-durable-ycsb-a entries.
const netBatchDefault = 32

// netBatches is the admission-bound ladder of the net-batch-window
// sweep: from no coalescing to far past the 64-line TMCAM.
var netBatches = []int{1, 4, 16, 64, 256}

// netWindowThreads is the client worker count of the batch sweep, and
// netWindowShards the (smaller) executor count its self-hosted servers
// run: concentrating the pipelined stream onto two queues is what lets
// the achieved batch size actually track the swept bound instead of
// being capped by per-shard queue depth.
const (
	netWindowThreads = 8
	netWindowShards  = 2
)

// netAdmitWait is the admission grace the batch sweep serves with: an
// executor holding a non-full batch waits this long for straggling
// pipelined requests, so the swept bound is actually approached instead
// of being limited by instantaneous queue depth.
const netAdmitWait = 100 * time.Microsecond

// NetPoint describes one closed-loop measurement against a live server.
type NetPoint struct {
	// Scenario names the hosted YCSB build ("ycsb-a", "ycsb-b", "ycsb-c").
	Scenario string
	// System is the server's concurrency control; it labels the records.
	System string
	// Addr is the server address.
	Addr string
	// Threads is the client worker (session) count.
	Threads int
	// Batch sets the server's admission bound for the point (0 keeps the
	// server's current bound).
	Batch int
	// AdmitWait sets the server's admission grace period for the point
	// (0 keeps the server's current value).
	AdmitWait time.Duration
	// param labels a swept-parameter point ("batch=16").
	param string
}

// ycsbSpecByID resolves a ycsb scenario id.
func ycsbSpecByID(id string) (ycsbSpec, error) {
	for _, y := range ycsbSpecs {
		if y.id == id {
			return y, nil
		}
	}
	return ycsbSpec{}, fmt.Errorf("experiments: unknown net scenario %q (known: ycsb-a, ycsb-b, ycsb-c)", id)
}

// netClient is the client side of a closed-loop point: a pipelined
// connection pool to one server, the scenario's workload bound to it,
// and the RemoteSystem counting what its workers commit.
type netClient struct {
	*engine.RemoteBackend
	sys     *engine.RemoteSystem
	threads int
	workers func(int) func()
}

// dialClient connects threads workers to addr over ⌈threads/2⌉
// connections, so sessions share pipelined connections.
func dialClient(addr string, y ycsbSpec, sc Scale, system string, threads int) (*netClient, error) {
	spec, err := y.spec(sc, threads)
	if err != nil {
		return nil, err
	}
	rb, err := engine.DialRemote(addr, (threads+1)/2)
	if err != nil {
		return nil, err
	}
	d, err := engine.New(spec, rb)
	if err != nil {
		rb.Close()
		return nil, err
	}
	sys := engine.NewRemoteSystem(system, threads)
	return &netClient{rb, sys, threads, d.Workers(sys)}, nil
}

// start launches the workers; stop quiesces them, which must happen
// before any connection teardown (the session protocol panics on
// transport failure).
func (c *netClient) start() (stop func()) { return runWorkers(c.threads, c.workers) }

// snapshot is what the workers have committed so far.
func (c *netClient) snapshot() stats.Stats { return c.sys.Collector().Snapshot() }

// result labels a window's client-side delta.
func (c *netClient) result(st stats.Stats, elapsed time.Duration) harness.Result {
	return harness.Result{
		System: c.sys.Name(), Threads: c.threads, Elapsed: elapsed, Stats: st,
		Throughput: float64(st.Commits) / elapsed.Seconds(),
	}
}

// drive runs the workers for window and returns exactly that window's
// commits.
func (c *netClient) drive(window time.Duration) harness.Result {
	stop := c.start()
	s0 := c.snapshot()
	start := time.Now()
	time.Sleep(window)
	stop()
	return c.result(c.snapshot().Sub(s0), time.Since(start))
}

// us converts a duration to the records' microsecond unit.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencyExtras differences two STATS replies into the window's
// server-side service latency and achieved batch size.
func latencyExtras(sv0, sv1 wire.ServerStats) results.NetExtras {
	hist := sv1.Hist.Sub(sv0.Hist)
	ex := results.NetExtras{LatencyP50Us: us(hist.Quantile(0.5)), LatencyP99Us: us(hist.Quantile(0.99))}
	if batches := sv1.Batches - sv0.Batches; batches > 0 {
		ex.BatchAvgOps = float64(sv1.BatchedOps-sv0.BatchedOps) / float64(batches)
	}
	return ex
}

// runNetPoint executes one remote measurement and returns e's record of
// it: client-observed commits and throughput, server-side abort
// taxonomy, plus the latency and telemetry extras.
func runNetPoint(e Entry, p NetPoint, sc Scale) (results.Record, error) {
	fail := func(err error) (results.Record, error) { return results.Record{}, err }
	y, err := ycsbSpecByID(p.Scenario)
	if err != nil {
		return fail(err)
	}
	if p.Threads <= 0 {
		return fail(fmt.Errorf("experiments: net point needs a positive thread count"))
	}
	rb, err := dialClient(p.Addr, y, sc, p.System, p.Threads)
	if err != nil {
		return fail(err)
	}
	defer rb.Close()
	if p.Batch > 0 || p.AdmitWait > 0 {
		ctrl := wire.Ctrl{BatchMax: p.Batch}
		if p.AdmitWait > 0 {
			ctrl.AdmitWaitUs = int(p.AdmitWait / time.Microsecond)
		}
		if err := rb.Ctrl(ctrl); err != nil {
			return fail(err)
		}
	}

	// The run loop mirrors harness.Run but snapshots BOTH sides at the
	// window edges, so the server-side abort/latency delta covers exactly
	// the client's measurement window.
	stopWorkers := rb.start()
	defer stopWorkers()
	time.Sleep(sc.Warmup)
	sv0, err := rb.Stats()
	if err != nil {
		return fail(err)
	}
	cl0 := rb.snapshot()
	start := time.Now()
	time.Sleep(sc.Measure)
	sv1, err := rb.Stats()
	elapsed := time.Since(start)
	cl1 := rb.snapshot()
	stopWorkers()
	if err != nil {
		return fail(err)
	}

	client := cl1.Sub(cl0)
	srvDelta := sv1.Stats.Sub(sv0.Stats)
	hr := rb.result(stats.Stats{
		// Client side: committed transactions (the throughput basis) and
		// their read-only share.
		Commits:   client.Commits,
		CommitsRO: client.CommitsRO,
		// Server side: abort taxonomy, fall-backs and wait spins of the
		// batched transactions that served them.
		Aborts:    srvDelta.Aborts,
		Fallbacks: srvDelta.Fallbacks,
		WaitSpins: srvDelta.WaitSpins,
	}, elapsed)

	r := e.record(p.param, hr)
	r.NetExtras = latencyExtras(sv0, sv1)
	if t1, t0 := sv1.Telemetry, sv0.Telemetry; t1 != nil && t0 != nil {
		r.AdmitWaitP99Us = us(t1.AdmitWaitHist.Sub(t0.AdmitWaitHist).Quantile(0.99))
		r.FsyncsTotal = t1.WalFsyncs - t0.WalFsyncs
		r.FsyncP99Us = us(t1.FsyncHist.Sub(t0.FsyncHist).Quantile(0.99))
		r.AckWaitP99Us = us(t1.AckWaitHist.Sub(t0.AckWaitHist).Quantile(0.99))
	}

	// Server-side structural check over the wire (quiesces executors).
	if err := rb.Check(); err != nil {
		return fail(err)
	}
	return r, nil
}

// runHostedPoint self-hosts spec's cluster for one point, measures its
// leader with p (the scenario, system and address are the cluster's),
// and verifies the cluster afterwards.
func runHostedPoint(e Entry, spec clusterSpec, p NetPoint, sc Scale) (results.Record, error) {
	c, err := startCluster(spec, sc)
	if err != nil {
		return results.Record{}, err
	}
	defer c.close()
	p.Scenario, p.System, p.Addr = spec.y.id, spec.system, c.addr()
	r, err := runNetPoint(e, p, sc)
	if err == nil {
		err = c.verify()
	}
	return r, err
}

// runNetAxis is the cell runner of the closed-loop net entries: at
// every axis point, self-host the entry's cluster (one build thread per
// client worker), measure it, verify it.
func (e Entry) runNetAxis(system string, sc Scale, hook func(results.Record)) error {
	for _, p := range e.netAxis(sc) {
		r, err := runHostedPoint(e, e.hosted(system, p.Threads, sc), p, sc)
		if err != nil {
			return fmt.Errorf("%s: %w", where(p.Threads, p.param), err)
		}
		hook(r)
	}
	return nil
}

// netLadder is the axis of the thread-ladder net entries: one point per
// rung, at whatever admission bound the server runs with (a self-hosted
// cluster starts at netBatchDefault; an external one keeps its --batch).
func netLadder(sc Scale) []NetPoint {
	var ps []NetPoint
	for _, n := range sc.threads(topology.PaperThreadLadder) {
		ps = append(ps, NetPoint{Threads: n})
	}
	return ps
}

// netYCSBEntry is YCSB-A over the wire across the thread ladder: the
// full service path — pipelined connections, admission batching,
// per-shard execution — compared across concurrency controls.
func netYCSBEntry() Entry {
	return Entry{
		ID:           "net-ycsb-a",
		Title:        "Networked YCSB-A: remote driver over the wire protocol, admission-batched transactions",
		Workload:     "net",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("ycsb-a over loopback batch=%d conns=threads/2", netBatchDefault),
		netAxis:      netLadder,
		hosted: func(system string, threads int, _ Scale) clusterSpec {
			return clusterSpec{y: ycsbA, system: system, threads: threads}
		},
	}
}

// netWindowEntry is the admission-batch sweep: fixed client count, the
// server's per-transaction op bound swept from 1 (no coalescing) to 256
// (footprint far past the 64-line TMCAM). Growing batches amortize
// begin/commit over more client ops but push plain HTM up the capacity
// cliff and onto the serial fall-back, while SI-HTM's ROTs keep read
// footprints untracked — the paper's capacity trade-off, measured
// through the service layer with client-visible p50/p99 latency.
func netWindowEntry() Entry {
	return Entry{
		ID:       "net-batch-window",
		Title:    fmt.Sprintf("Admission-batch sweep: throughput and p50/p99 latency vs batch bound (%d client threads)", netWindowThreads),
		Workload: "net",
		Systems:  []string{"si-htm", "htm"},
		Params: fmt.Sprintf("ycsb-a over loopback batches=%v threads=%d shards=%d admit-wait=%s",
			netBatches, netWindowThreads, netWindowShards, netAdmitWait),
		netAxis: func(sc Scale) []NetPoint {
			var ps []NetPoint
			for _, batch := range netBatches {
				ps = append(ps, NetPoint{
					Threads: sc.cap(netWindowThreads), Batch: batch, AdmitWait: netAdmitWait,
					param: fmt.Sprintf("batch=%d", batch),
				})
			}
			return ps
		},
		hosted: func(system string, threads int, _ Scale) clusterSpec {
			return clusterSpec{y: ycsbA, system: system, threads: threads, shards: netWindowShards}
		},
	}
}

// netDurableSpec is the durable single-node cluster of the
// net-durable-ycsb-a cell: group commit, fuzzy checkpoints under
// traffic.
func netDurableSpec(system string, threads int, sc Scale) clusterSpec {
	return clusterSpec{
		y: ycsbA, system: system, threads: threads,
		durable: true, ckptEvery: sc.Measure / 3,
	}
}

// netDurableEntry is durable YCSB-A over the wire: every reply
// acknowledges a group-commit fsync, fuzzy checkpoints run under
// traffic, and each point proves digest-exact recovery of the live heap
// from checkpoint + log.
func netDurableEntry() Entry {
	return Entry{
		ID:           "net-durable-ycsb-a",
		Title:        "Networked durable YCSB-A: replies acknowledge group-commit fsyncs, digest-exact recovery per point",
		Workload:     "net",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("ycsb-a over loopback batch=%d ack=fsync ckpt=fuzzy", netBatchDefault),
		netAxis:      netLadder,
		hosted:       netDurableSpec,
	}
}

// netEntries builds the networked scenario entries in presentation
// order.
func netEntries() []Entry {
	return []Entry{netYCSBEntry(), netWindowEntry(), netDurableEntry(), connScaleEntry()}
}

// NetEntryIDs lists the networked registry entries `repro loadgen` can
// drive against an external server.
func NetEntryIDs() []string {
	return []string{"net-ycsb-a", "net-batch-window", "net-durable-ycsb-a", "net-connscale"}
}

// BuildServed builds what `repro serve` hosts: the named scenario,
// populated, and its concurrency control sized for shards executors.
// The build's deterministic seed derives from shards, so a follower and
// a later recovery must use the leader's value.
func BuildServed(scenario, system, scaleName string, shards int) (*htm.Machine, engine.Backend, tm.System, error) {
	fail := func(err error) (*htm.Machine, engine.Backend, tm.System, error) { return nil, nil, nil, err }
	sc, err := ScaleByName(scaleName)
	if err != nil {
		return fail(err)
	}
	y, err := ycsbSpecByID(scenario)
	if err != nil {
		return fail(err)
	}
	if shards <= 0 {
		return fail(fmt.Errorf("experiments: serve needs a positive shard count"))
	}
	b, err := y.build(sc.withDefaults(), shards)
	if err != nil {
		return fail(err)
	}
	sys, err := NewSystem(system, b.machine, b.machine.Heap(), shards)
	if err != nil {
		return fail(err)
	}
	return b.machine, b.backend, sys, nil
}

// runLoadgenAxis measures e's closed-loop axis against a live external
// server, putting the operator's admission knobs back afterwards even
// when a point fails mid-axis (the server outlives the load generator).
func runLoadgenAxis(addr string, e Entry, st wire.ServerStats, sc, buildSc Scale,
	hook func(results.Record), note func(string, ...any)) (err error) {
	defer func() {
		restore, derr := engine.DialRemote(addr, 1)
		if derr == nil {
			wait := st.AdmitWaitUs
			if wait == 0 {
				wait = -1 // clear back to no grace
			}
			derr = restore.Ctrl(wire.Ctrl{BatchMax: st.BatchMax, AdmitWaitUs: wait})
			restore.Close()
		}
		if derr != nil && err == nil {
			err = fmt.Errorf("%s: restoring server knobs: %w", e.ID, derr)
		}
	}()
	for _, p := range e.netAxis(sc) {
		p.Scenario, p.System, p.Addr = st.Scenario, st.System, addr
		r, perr := runNetPoint(e, p, buildSc)
		if perr != nil {
			return fmt.Errorf("%s: %s: %w", e.ID, where(p.Threads, p.param), perr)
		}
		hook(r)
		note("  %s %s: %.0f tx/s p50=%.0fµs p99=%.0fµs batch=%.1f",
			e.ID, where(p.Threads, p.param), r.Throughput, r.LatencyP50Us, r.LatencyP99Us, r.BatchAvgOps)
	}
	return nil
}

// servedBuild asks a live `repro serve` what it hosts: its STATS reply,
// the scenario, and the scale the scenario's keyspace was built at.
func servedBuild(rb *engine.RemoteBackend, addr string) (wire.ServerStats, ycsbSpec, Scale, error) {
	fail := func(err error) (wire.ServerStats, ycsbSpec, Scale, error) {
		return wire.ServerStats{}, ycsbSpec{}, Scale{}, err
	}
	st, err := rb.Stats()
	if err != nil {
		return fail(err)
	}
	if st.Scenario == "" {
		return fail(fmt.Errorf("experiments: server at %s reports no scenario; is it `repro serve`?", addr))
	}
	y, err := ycsbSpecByID(st.Scenario)
	if err != nil {
		return fail(err)
	}
	buildSc, err := ScaleByName(st.Scale)
	if err != nil {
		return fail(fmt.Errorf("experiments: server build scale: %w", err))
	}
	return st, y, buildSc.withDefaults(), nil
}

// RunLoadgen drives the selected net entries against a live external
// server and streams one record per measured point. The server's TStats
// reply supplies the concurrency control, scenario and build scale the
// records are labeled with; sc shapes the client (ladder caps, run
// windows). The batch sweep restores the server's admission bound
// afterwards. progress may be nil.
func RunLoadgen(addr string, ids []string, sc Scale, hook func(results.Record), progress io.Writer) error {
	sc = sc.withDefaults()
	probe, err := engine.DialRemote(addr, 1)
	if err != nil {
		return err
	}
	st, y, buildSc, err := servedBuild(probe, addr)
	probe.Close()
	if err != nil {
		return err
	}
	// The server's build scale governs the keyspace the client draws
	// from; the client's own scale only shapes windows and ladders.
	buildSc.Warmup, buildSc.Measure = sc.Warmup, sc.Measure
	note := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	note("loadgen: server %s runs %s on %s (scale=%s, shards=%d, durable=%v)",
		addr, st.Scenario, st.System, st.Scale, st.Shards, st.Durable)

	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return fmt.Errorf("experiments: unknown net entry %q (known: %v)", id, NetEntryIDs())
		}
		switch {
		case e.netAxis != nil:
			if id == "net-durable-ycsb-a" && !st.Durable {
				return fmt.Errorf("experiments: %s needs a durable server (serve --durable-dir)", id)
			}
			if err := runLoadgenAxis(addr, e, st, sc, buildSc, hook, note); err != nil {
				return err
			}
		case id == "net-connscale":
			// The ladder reconfigures the server's admission knobs per
			// rung and leaves them at moderate defaults; the keyspace
			// comes from the server's own build.
			keys := y.keys(buildSc)
			// The window floors apply against an external server too:
			// the uncontrolled rungs hold replies for a 10ms admission
			// grace, so a tens-of-milliseconds window could close
			// before the first batch answers.
			if err := runConnScaleLadder(e, addr, st.System, keys, connScaleWindows(sc), hook, note); err != nil {
				return err
			}
		default:
			return fmt.Errorf("experiments: %q is not a loadgen-drivable net entry (known: %v)", id, NetEntryIDs())
		}
	}
	return nil
}
