package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// options are the knobs of one invocation. seconds is the only duration:
// every warm-up and slice is a fixed fraction of it.
type options struct {
	seed    uint64
	seconds float64 // measured seconds per workload (untraced run)
	trace   bool
	// The node is set up at least setupReps times, and again until
	// setupBudget is spent (at most maxSetupReps times in all); setup_s
	// is their quiet decile. Over twenty runs the median of 25 set-ups of
	// 45 ms spread 0.20-0.39 between the quartiles and their quiet decile
	// 0.07-0.14: the host slows down for a second at a time, which is
	// half the set-ups of a run.
	setupReps   int
	setupBudget time.Duration
	// detTransactions is how many planned transactions the deterministic
	// replay runs.
	detTransactions int
	scratch         string // WAL directories and span files go here
}

// slicesPerPhase is how many back-to-back slices a timed phase is cut
// into. Many short slices, not a few long ones: on a shared host a stall
// or a noisy neighbour spoils the slices it overlaps, and the fewer of a
// phase's slices those are, the less they can move its result.
const slicesPerPhase = 40

const maxSetupReps = 25

const (
	// tracedSliceFrac and refSliceFrac size the traced run's single
	// slices as fractions of options.seconds.
	tracedSliceFrac = 0.4
	refSliceFrac    = 0.2
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// untracedTiming splits options.seconds over the workload's phases: one
// phase in process, two (closed then open loop) over the network; each
// phase is a warm-up a tenth of its length and then its slices.
func (o options) untracedTiming(w *workload) phaseTiming {
	phases := 1.0
	if w.net {
		phases = 2
	}
	return phaseTiming{
		warmup: seconds(o.seconds / phases / 10),
		slice:  seconds(o.seconds / phases / slicesPerPhase),
		slices: slicesPerPhase,
	}
}

func (o options) singleSlice(frac float64) phaseTiming {
	slice := seconds(o.seconds * frac)
	return phaseTiming{warmup: slice / 4, slice: slice, slices: 1}
}

// rig is a node with its inputs and, over the network, its client: all
// that set-up builds.
type rig struct {
	n      *node
	plans  []plan
	client *netClient
}

// setUp generates the inputs, assembles the node and connects the client.
func setUp(w *workload, system string, o options, tr *tracer) (*rig, error) {
	r := &rig{}
	for t := 0; t < loadThreads; t++ {
		r.plans = append(r.plans, w.genPlan(o.seed, t))
	}
	var err error
	if r.n, err = buildNode(w, system, tr, o.scratch); err != nil {
		return nil, err
	}
	if w.net {
		if r.client, err = dialAll(r.n, o.seed, r.plans, tr); err != nil {
			r.n.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) tearDown() error {
	if r.client != nil {
		r.client.close()
	}
	return r.n.close()
}

// verify runs the correctness checks; over the wire the committed RMW
// count is only known to lie between acknowledged and sent.
func (r *rig) verify(inprocRMWs uint64) (recoveryResult, time.Duration, error) {
	lo, hi := inprocRMWs, inprocRMWs
	if r.client != nil {
		hi, lo = r.client.rmwCounts()
	}
	return verify(r.n, lo, hi)
}

// outcome is everything one workload run produced.
type outcome struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Traced    bool          `json:"traced"`
	Correct   bool          `json:"correct"`
	Attempted uint64        `json:"attempted"`
	Failed    uint64        `json:"failed"`
	Labels    []string      `json:"labels,omitempty"`
	Error     string        `json:"error,omitempty"`
	Metrics   []metricValue `json:"metrics"`
	SpanFile  string        `json:"span_file,omitempty"`
}

// tally adds a phase's operations to the run's totals.
func (out *outcome) tally(p *phaseData) {
	for _, s := range p.slices {
		out.Attempted += s.attempted
		out.Failed += s.failed
	}
}

// runUntraced is the run every end-to-end metric comes from.
func runUntraced(w *workload, o options) (*outcome, error) {
	out := &outcome{Workload: w.name, Seed: o.seed, Seconds: o.seconds}

	// Set-up, several times over: one sample of setup_s is at the mercy
	// of a single page-fault storm.
	var r *rig
	var setups []float64
	for begin := time.Now(); len(setups) < o.setupReps || (len(setups) < maxSetupReps && time.Since(begin) < o.setupBudget); {
		if r != nil {
			if err := r.tearDown(); err != nil {
				return out, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(w, sutSystem, o, nil); err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.tearDown()

	pt := o.untracedTiming(w)
	var txPhase, latPhase *phaseData
	var rmws uint64
	var err error
	if w.net {
		if txPhase, err = r.client.runClosed(pt, nil); err != nil {
			return out, fmt.Errorf("phase A: %w", err)
		}
		if latPhase, err = r.client.runOpen(pt, w.rate, nil); err != nil {
			return out, fmt.Errorf("phase B: %w", err)
		}
		if frac := achievedFrac(latPhase); frac < 0.99 {
			out.Labels = append(out.Labels, fmt.Sprintf("phase-b-invalid(achieved_frac=%.4f)", frac))
		}
	} else {
		txPhase, rmws = runInproc(r.n, r.plans, pt, nil, nil)
		latPhase = txPhase
	}
	heapMB := heapLiveMB()

	if _, _, err := r.verify(rmws); err != nil {
		return out, err
	}
	out.Correct = true
	out.tally(txPhase)
	if w.net {
		out.tally(latPhase)
	}
	out.Metrics = endToEndMetrics(txPhase, latPhase, setups, heapMB, float64(out.Failed)/float64(max(out.Attempted, 1)))
	return out, nil
}

func achievedFrac(p *phaseData) float64 {
	if p.offered == 0 {
		return 0
	}
	return float64(p.sent) / float64(p.offered)
}

// heapLiveMB is Go's HeapInuse after a forced collection: simulated heap,
// index, buffers.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// endToEndMetrics reduces the phases to the end-to-end metrics. Speeds,
// latencies and the share within the latency limit are taken per slice
// and reduced by sliceMetric. The share over the whole phase is printed
// beside the gated value: it is what counts a pause that hits one slice
// in eight, and on a shared host it is also what the host's own pauses
// move by 0.15 and more from run to run (README.md, "Reference results").
func endToEndMetrics(txPhase, latPhase *phaseData, setups []float64, heapMB, failFrac float64) []metricValue {
	var tx, p50, p99, cpu, inLimit []float64
	var within, base uint64
	samples, beyond := 0, true
	for _, s := range txPhase.slices {
		tx = append(tx, float64(s.done)/s.seconds)
	}
	for _, s := range latPhase.slices {
		v50, _ := quantile(s.lat, 0.50)
		v99, ok := quantile(s.lat, 0.99)
		beyond = beyond && ok
		p50 = append(p50, float64(v50)/1e3)
		p99 = append(p99, float64(v99)/1e3)
		cpu = append(cpu, s.cpu*1e6/float64(max(s.done, 1)))
		inLimit = append(inLimit, float64(s.within)/float64(max(s.limitBase, 1)))
		within += s.within
		base += s.limitBase
		samples += len(s.lat)
	}
	// The set-ups of a run are its slices: a slow second on the host
	// takes a dozen of them in a row.
	setup := sliceMetric("setup_s", setups, 0)
	lat99 := sliceMetric("lat_p99_us", p99, samples)
	if !beyond {
		lat99.Note = fmt.Sprintf("fewer than %d samples beyond p99 in some slice", minBeyond)
	}
	limit := sliceMetric("within_limit_frac", inLimit, int(base))
	limit.Note = fmt.Sprintf("whole phase %.6f", float64(within)/float64(max(base, 1)))
	return []metricValue{
		setup,
		sliceMetric("tx_per_s", tx, 0),
		sliceMetric("lat_p50_us", p50, samples),
		lat99,
		limit,
		wholeMetric("fail_frac", failFrac),
		sliceMetric("cpu_us_per_tx", cpu, 0),
		wholeMetric("heap_live_mb", heapMB),
	}
}

// windowSnap is what the traced run reads at the edges of its measured
// slice.
type windowSnap struct {
	at      time.Time
	tm      TMStats
	srv     ServerStats
	mem     runtime.MemStats
	applied uint64
	conn    connCounts
}

type connCounts struct{ reads, readBytes, writeBytes uint64 }

func (r *rig) snap() windowSnap {
	s := windowSnap{at: time.Now(), tm: r.n.raw.Collector().Snapshot()}
	runtime.ReadMemStats(&s.mem)
	if r.n.srv != nil {
		s.srv = r.n.srv.Snapshot()
	}
	if r.n.fol != nil {
		s.applied = r.n.fol.Applied()
	}
	if r.client != nil {
		for _, c := range r.client.conns {
			if c.cc != nil {
				s.conn.reads += c.cc.reads.Load()
				s.conn.readBytes += c.cc.readBytes.Load()
				s.conn.writeBytes += c.cc.writeBytes.Load()
			}
		}
	}
	return s
}

// refSlice runs warm-up plus one untraced slice of the workload's
// throughput phase under the named system on a fresh node, and returns
// transactions per second and the collector's delta over the slice.
func refSlice(w *workload, system string, o options) (txPerS float64, delta TMStats, err error) {
	r, err := setUp(w, system, o, nil)
	if err != nil {
		return 0, delta, err
	}
	defer r.tearDown()
	var snaps [2]TMStats
	atEdge := func(i int) { snaps[i] = r.n.raw.Collector().Snapshot() }
	pt := o.singleSlice(refSliceFrac)
	var p *phaseData
	var rmws uint64
	if w.net {
		if p, err = r.client.runClosed(pt, atEdge); err != nil {
			return 0, delta, err
		}
	} else {
		p, rmws = runInproc(r.n, r.plans, pt, nil, atEdge)
	}
	if _, _, err = r.verify(rmws); err != nil {
		return 0, delta, err
	}
	return float64(p.slices[0].done) / p.slices[0].seconds, snaps[1].Sub(snaps[0]), nil
}

// lagSampler samples leader LastSeq minus follower Watermark every 10 ms
// while running.
type lagSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []int64
}

func startLagSampler(n *node) *lagSampler {
	l := &lagSampler{stop: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				// Watermark first: read the other way round, commits
				// between the two reads would show as negative lag.
				w := n.fol.Watermark()
				l.samples = append(l.samples, int64(n.store.LastSeq()-min(w, n.store.LastSeq())))
			}
		}
	}()
	return l
}

func (l *lagSampler) finish() []int64 {
	close(l.stop)
	l.wg.Wait()
	slices.Sort(l.samples)
	return l.samples
}

// runTraced is the run every per-layer metric comes from: two untraced
// reference slices (si-htm for the tracing overhead, htm for the paper's
// baseline), then the workload with the decorators installed and one long
// slice per phase, then the offline replays.
func runTraced(w *workload, o options) (*outcome, error) {
	out := &outcome{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: true}
	L := newLayerValues()

	// htm first: a process's first seconds run slow on this host, and the
	// overhead figure should not inherit them.
	htmTx, htmDelta, err := refSlice(w, refSystem, o)
	if err != nil {
		return out, fmt.Errorf("htm reference: %w", err)
	}
	untracedTx, _, err := refSlice(w, sutSystem, o)
	if err != nil {
		return out, fmt.Errorf("untraced reference: %w", err)
	}
	L.set("tm.htm_ref_tx_per_s", htmTx)
	L.set("tm.si_over_htm", untracedTx/htmTx)
	L.set("tm.htm_ref_capacity_per_ktx", perK(htmDelta.Aborts[AbortCapacity], htmDelta.Commits))

	tr := newTracer()
	r, err := setUp(w, sutSystem, o, tr)
	if err != nil {
		return out, err
	}
	defer r.tearDown()

	pt := o.singleSlice(tracedSliceFrac)
	var snaps [2]windowSnap
	var lag *lagSampler
	var lagSamples []int64
	atEdge := func(i int) {
		if i == 0 {
			if r.n.fol != nil {
				lag = startLagSampler(r.n)
			}
			snaps[0] = r.snap()
			tr.window.Store(1)
			return
		}
		tr.window.Store(0)
		snaps[1] = r.snap()
		if lag != nil {
			lagSamples = lag.finish()
		}
	}
	var txPhase, winPhase *phaseData
	var rmws uint64
	if w.net {
		if txPhase, err = r.client.runClosed(pt, nil); err != nil {
			return out, fmt.Errorf("traced phase A: %w", err)
		}
		if winPhase, err = r.client.runOpen(pt, w.rate, atEdge); err != nil {
			return out, fmt.Errorf("traced phase B: %w", err)
		}
	} else {
		txPhase, rmws = runInproc(r.n, r.plans, pt, tr, atEdge)
		winPhase = txPhase
	}
	tracedTx := float64(txPhase.slices[0].done) / txPhase.slices[0].seconds
	L.set("trace_overhead_frac", 1-tracedTx/untracedTx)

	if r.n.srv != nil {
		us, series, err := scrapeCost(r.n.srv)
		if err != nil {
			return out, fmt.Errorf("telemetry scrape: %w", err)
		}
		L.set("telemetry.scrape_us", us)
		L.set("telemetry.series", float64(series))
	}

	rec, catchup, err := r.verify(rmws)
	if err != nil {
		return out, err
	}
	out.Correct = true
	out.tally(txPhase)
	if w.net {
		out.tally(winPhase)
	}

	L.fillWindow(tr, r, winPhase, snaps, lagSamples)
	if r.n.store != nil {
		L.set("durable.recover_s", rec.seconds)
		L.set("durable.recover_recs_per_s", float64(rec.applied)/rec.seconds)
		L.set("replica.catchup_ms", float64(catchup.Nanoseconds())/1e6)
		L.set("replica.reconnects", float64(r.n.fol.Reconnects()))
		wr, err := replayWAL(r.n.store.LogPath(), r.n.walDir)
		if err != nil {
			return out, err
		}
		L.set("wal.append_ns", wr.appendNs)
		L.set("wal.sync_us", wr.syncUs)
	}
	if w.net {
		wire, err := replayWire(r.plans[0])
		if err != nil {
			return out, err
		}
		L.set("wire.parse_req_ns", wire.parseReqNs)
		L.set("wire.encode_reply_ns", wire.encodeReplyNs)
	}

	det, err := detReplayTwice(w, r.plans[0], o.detTransactions)
	if err != nil {
		out.Correct = false
		return out, err
	}
	L.set("tm.det.commits", float64(det.commits))
	L.set("tm.det.capacity_htm", float64(det.capacityHTM))
	L.set("tm.det.fallback_htm", float64(det.fallbackHTM))
	L.set("tm.det.capacity_sihtm", float64(det.capacitySIHTM))
	L.set("tm.det.rot_begins_sihtm", float64(det.rotBeginsSIHTM))
	L.set("tm.det.htm_begins_sihtm", float64(det.htmBeginsSIHTM))

	if out.SpanFile, err = tr.writeSpans(o.scratch, w.name); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	out.Metrics = L.metrics()
	return out, nil
}

func perK(n, per uint64) float64 { return 1000 * float64(n) / float64(max(per, 1)) }

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// fillWindow computes the per-layer metrics of the measured slice from
// the decorators' counters and the program's public counters, read at
// the slice's two edges.
func (L *layerValues) fillWindow(tr *tracer, r *rig, p *phaseData, snaps [2]windowSnap, lag []int64) {
	c := tr.total()
	secs := snaps[1].at.Sub(snaps[0].at).Seconds()
	tm := snaps[1].tm.Sub(snaps[0].tm)
	commits := float64(tm.Commits)
	done := float64(p.slices[0].done) // transactions in process, requests over the wire

	// tm: every Atomic and every body attempt is timed.
	L.set("tm.atomic_ns", ratio(float64(c.atomicNs), float64(c.atomics)))
	L.set("tm.self_ns", ratio(float64(c.atomicNs-c.bodyNs-int64(c.atomics+c.bodies)*tr.clockNs), float64(c.atomics)))
	L.set("tm.attempts_per_commit", ratio(float64(c.bodies), float64(c.atomics)))
	L.set("tm.useful_frac", ratio(commits, float64(tm.Attempts())))
	L.set("tm.conflict_per_ktx", perK(tm.Aborts[AbortConflict], tm.Commits))
	L.set("tm.capacity_per_ktx", perK(tm.Aborts[AbortCapacity], tm.Commits))
	L.set("tm.fallback_per_ktx", perK(tm.Fallbacks, tm.Commits))
	L.set("tm.wait_spins_per_tx", ratio(float64(tm.WaitSpins), commits))
	L.set("tm.ro_share", ratio(float64(tm.CommitsRO), commits))

	// htm: every access counted, those of sampled transactions timed.
	L.set("htm.reads_per_tx", ratio(float64(c.reads), float64(c.atomics)))
	L.set("htm.writes_per_tx", ratio(float64(c.writes), float64(c.atomics)))
	L.set("htm.read_ns", ratio(float64(c.readNs), float64(c.timedReads))-float64(tr.clockNs))
	L.set("htm.write_ns", ratio(float64(c.writeNs), float64(c.timedWrites))-float64(tr.clockNs))
	L.set("htm.read_lines_p50", countQuantile(c.readLines[:], 0.50))
	L.set("htm.read_lines_p99", countQuantile(c.readLines[:], 0.99))
	L.set("htm.write_lines_p50", countQuantile(c.writeLines[:], 0.50))
	L.set("htm.write_lines_p99", countQuantile(c.writeLines[:], 0.99))

	L.set("engine.read_ns", ratio(float64(c.sessReadNs), float64(c.timedSessReads)))
	L.set("engine.rmw_ns", ratio(float64(c.rmwNs), float64(c.timedSessRMWs)))
	L.set("engine.accesses_per_read", ratio(float64(c.sessReadAccesses), float64(c.sessReads)))

	m0, m1 := &snaps[0].mem, &snaps[1].mem
	L.set("rt.alloc_bytes_per_tx", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), done))
	L.set("rt.allocs_per_tx", ratio(float64(m1.Mallocs-m0.Mallocs), done))
	L.set("rt.gc_cycles", float64(m1.NumGC-m0.NumGC))
	L.set("rt.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	if r.client == nil {
		return
	}
	// gen: how late the open loop sent, and how much of the schedule it
	// sent inside the window.
	if late, ok := quantile(p.late, 0.99); ok {
		L.set("gen.late_p99_us", float64(late)/1e3)
	}
	L.set("gen.achieved_frac", achievedFrac(p))

	// wire, client side: sampled requests timed around the codec calls;
	// bytes from the counting connection.
	var enc, par, encN, parN, errReplies float64
	for _, cc := range r.client.conns {
		enc += float64(cc.tr.encodeNs)
		encN += float64(cc.tr.encodes)
		par += float64(cc.tr.parseNs)
		parN += float64(cc.tr.parses)
		errReplies += float64(cc.errReplies)
	}
	L.set("wire.encode_req_ns", ratio(enc, encN)-float64(tr.clockNs))
	L.set("wire.parse_reply_ns", ratio(par, parN)-float64(tr.clockNs))
	conn0, conn1 := snaps[0].conn, snaps[1].conn
	s0, s1 := snaps[0].srv, snaps[1].srv
	t0, t1 := s0.Telemetry, s1.Telemetry
	framesIn, framesOut := float64(t1.FramesIn-t0.FramesIn), float64(t1.FramesOut-t0.FramesOut)
	L.set("wire.bytes_per_req", ratio(float64(conn1.writeBytes-conn0.writeBytes), framesIn))
	L.set("wire.bytes_per_reply", ratio(float64(conn1.readBytes-conn0.readBytes), framesOut))

	// server: its public counters over the window; batch execution time
	// from the decorator it was handed as Config.System.
	batches := float64(s1.Batches - s0.Batches)
	L.set("server.ops_per_batch", ratio(float64(s1.BatchedOps-s0.BatchedOps), batches))
	L.set("server.batches_per_s", batches/secs)
	admit := t1.AdmitWaitHist.Sub(t0.AdmitWaitHist)
	L.set("server.admit_wait_us_p50", us(admit.Quantile(0.50)))
	L.set("server.admit_wait_us_p99", us(admit.Quantile(0.99)))
	if c.outers > 0 {
		L.set("server.exec_us_mean", float64(c.outerNs)/float64(c.outers)/1e3)
	} else {
		L.set("server.exec_us_mean", ratio(float64(c.atomicNs), float64(c.atomics))/1e3)
	}
	L.set("server.flush_us_p50", us(t1.FlushHist.Sub(t0.FlushHist).Quantile(0.50)))
	L.set("server.service_us_p50", us(s1.Hist.Sub(s0.Hist).Quantile(0.50)))
	L.set("server.replies_per_read", ratio(framesOut, float64(conn1.reads-conn0.reads)))
	L.set("server.err_replies", errReplies)

	if r.n.store == nil {
		return
	}
	// wal and durable: the log's counters and histograms over the window;
	// the ack wait is also what the outer decorator saw beyond the inner.
	fsyncs := float64(t1.WalFsyncs - t0.WalFsyncs)
	recs := float64(t1.WalRecords - t0.WalRecords)
	L.set("wal.recs_per_fsync", ratio(recs, fsyncs))
	L.set("wal.fsyncs_per_s", fsyncs/secs)
	// Every RMW is one Ops.Write (its key exists), so writes counts RMWs.
	L.set("wal.bytes_per_tx", ratio(float64(t1.WalBytes-t0.WalBytes), float64(c.writes)))
	fsync := t1.FsyncHist.Sub(t0.FsyncHist)
	L.set("wal.fsync_us_p50", us(fsync.Quantile(0.50)))
	L.set("wal.fsync_us_p99", us(fsync.Quantile(0.99)))
	L.set("durable.ack_self_us", ratio(float64(c.outerNs-c.atomicNs), float64(c.outers))/1e3)
	ack := t1.AckWaitHist.Sub(t0.AckWaitHist)
	L.set("durable.ack_wait_us_p50", us(ack.Quantile(0.50)))
	L.set("durable.ack_wait_us_p99", us(ack.Quantile(0.99)))

	if v, ok := quantile(lag, 0.50); ok {
		L.set("replica.lag_recs_p50", float64(v))
	}
	if v, ok := quantile(lag, 0.99); ok || len(lag) > 0 {
		L.set("replica.lag_recs_p99", float64(v))
	}
	L.set("replica.applied_per_s", float64(snaps[1].applied-snaps[0].applied)/secs)
}
