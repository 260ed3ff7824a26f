package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sihtm/internal/experiments"
	"sihtm/internal/loadgen"
	"sihtm/internal/node"
	"sihtm/internal/server"
	"sihtm/internal/tsdb"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// cmdServe runs the networked service layer: build one scenario
// (optionally durable), listen, serve until SIGTERM/SIGINT, then drain
// gracefully — in-flight commits quiesce, replies flush, and a durable
// store writes a final checkpoint — and exit 0.
func cmdServe(args []string) error {
	fs := newFlags("serve")
	var (
		addr        = fs.String("addr", "127.0.0.1:7654", "listen address")
		scenario    = fs.String("scenario", "ycsb-a", "hosted workload build: ycsb-a|ycsb-b|ycsb-c")
		system      = fs.String("system", "si-htm", "concurrency control")
		scaleName   = fs.String("scale", "ci", "workload sizing preset: "+strings.Join(experiments.ScaleNames(), "|"))
		shards      = fs.Int("shards", 4, "executor goroutines (transaction threads)")
		batch       = fs.Int("batch", 32, "admission bound: max ops per transaction")
		admitWait   = fs.Duration("admit-wait", 0, "admission grace: wait this long for a fuller batch")
		p99Target   = fs.Duration("p99-target", 0, "adaptive admission control: steer batch/grace toward this p99 service latency")
		dir         = fs.String("durable-dir", "", "serve durably: WAL + checkpoints + meta.json in DIR")
		ckptEvery   = fs.Duration("checkpoint-every", time.Second, "fuzzy checkpoint interval (0 disables)")
		follow      = fs.String("follow", "", "serve as a read replica of the durable leader at ADDR")
		leaderLog   = fs.String("leader-log", "", "shared-storage path of the leader's wal.log (promotion catch-up)")
		metricsAddr = fs.String("metrics-addr", "", "observability address: /metrics, /healthz, /readyz, /debug/pprof, /debug/traces, /debug/timeseries, /debug/alerts")
		scrapeIv    = fs.Duration("scrape-interval", 0, "time-series self-scrape cadence (0 = default 1s; needs --metrics-addr)")
		traceSlow   = fs.Duration("trace-slow", 0, "record server-origin spans (see /debug/traces) for unsampled requests slower than this (0 disables)")
		quiet       = fs.Bool("quiet", false, "suppress the per-second stats line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// An open-loop load generator may aim thousands of connections here.
	loadgen.RaiseFDLimit()
	m, backend, err := experiments.BuildServed(*scenario, *scaleName, *shards)
	if err != nil {
		return err
	}
	digest := m.Heap().Digest()
	sys, err := experiments.NewSystem(*system, m, m.Heap(), *shards)
	if err != nil {
		return err
	}
	cfg := node.Config{
		Addr:    *addr,
		Machine: m,
		Server: server.Config{
			Backend:    backend,
			System:     sys,
			Shards:     *shards,
			BatchMax:   *batch,
			AdmitWait:  *admitWait,
			P99Target:  *p99Target,
			Scenario:   *scenario,
			Scale:      *scaleName,
			BaseDigest: digest,
			TraceSlow:  *traceSlow,
		},
		MetricsAddr: *metricsAddr,
		TSDB:        tsdb.Config{Interval: *scrapeIv},
	}
	if *follow != "" {
		if *dir != "" {
			return fmt.Errorf("a follower cannot also serve durably (--follow excludes --durable-dir)")
		}
		if err := probeLeader(*follow, *scenario, *scaleName, *shards, digest); err != nil {
			return err
		}
		leader := *follow
		cfg.Follower.Dial = func() (net.Conn, error) { return net.Dial("tcp", leader) }
		cfg.Server.LeaderLogPath = *leaderLog
	}
	if *dir != "" {
		// meta.json makes the run directory replayable by `repro recover`.
		err := experiments.WriteDurableMeta(*dir, experiments.DurableMeta{
			Scenario:   *scenario,
			System:     *system,
			Scale:      *scaleName,
			Threads:    *shards,
			BaseDigest: digest,
		})
		if err != nil {
			return err
		}
		cfg.Dir = *dir
		cfg.CkptEvery = *ckptEvery
		cfg.Server.CheckpointPath = node.CkptPath(*dir)
	}
	ns, err := node.Start(cfg)
	if err != nil {
		return err
	}
	// One structured line with everything an operator needs to find this
	// process again: addresses, build, and every knob that shapes the
	// run, as the server runs with it (a zero --batch means 16).
	mode := "volatile"
	switch {
	case *dir != "":
		mode = "durable"
	case *follow != "":
		mode = "follower"
	}
	st := ns.Srv.Snapshot()
	fields := fmt.Sprintf("addr=%s scenario=%s system=%s scale=%s base_digest=%s shards=%d mode=%s batch_max=%d admit_wait=%s p99_target=%s",
		ns.Addr, *scenario, *system, *scaleName, digest, *shards, mode,
		st.BatchMax, time.Duration(st.AdmitWaitUs)*time.Microsecond, time.Duration(st.P99TargetUs)*time.Microsecond)
	if *dir != "" {
		fields += fmt.Sprintf(" durable_dir=%s", *dir)
	}
	if *follow != "" {
		fields += fmt.Sprintf(" leader=%s", *follow)
	}
	if ns.Metrics != nil {
		fields += fmt.Sprintf(" metrics_addr=%s", ns.Metrics.Addr())
	}
	if *traceSlow > 0 {
		fields += fmt.Sprintf(" trace_slow=%s", *traceSlow)
	}
	fmt.Fprintf(os.Stderr, "serve: started %s\n", fields)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	var report <-chan time.Time
	if !*quiet {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		report = t.C
	}
	start := time.Now()
	for {
		select {
		case <-report:
			st := ns.Srv.Hist().Snapshot()
			fmt.Fprintf(os.Stderr, "t=%s ops=%d p50=%s p99=%s\n",
				time.Since(start).Round(time.Second), st.Count(), st.Quantile(0.5), st.Quantile(0.99))
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "serve: %v — draining\n", sig)
			if err := ns.Shutdown(); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			// Final counter totals, in the same key=value shape as the
			// startup line, so a log pair brackets the whole run.
			st := ns.Srv.Snapshot()
			totals := fmt.Sprintf("uptime=%s ops=%d commits=%d commits_ro=%d aborts=%d fallbacks=%d batches=%d",
				time.Since(start).Round(time.Millisecond), st.Hist.Count(),
				st.Stats.Commits, st.Stats.CommitsRO, st.Stats.TotalAborts(), st.Stats.Fallbacks, st.Batches)
			if t := st.Telemetry; t != nil {
				totals += fmt.Sprintf(" frames_in=%d frames_out=%d", t.FramesIn, t.FramesOut)
				if st.Durable {
					totals += fmt.Sprintf(" wal_records=%d wal_fsyncs=%d", t.WalRecords, t.WalFsyncs)
				}
			}
			fmt.Fprintf(os.Stderr, "serve: drained cleanly %s\n", totals)
			return nil
		case <-ns.Served():
			// Listener failed outside a drain; Shutdown reports why.
			return ns.Shutdown()
		}
	}
}

// probeLeader asks a leader for its STATS and refuses to follow it
// unless followable.
func probeLeader(leader, scenario, scaleName string, shards int, digest string) error {
	probe, err := engine.DialRemote(leader, 1)
	if err != nil {
		return fmt.Errorf("probing leader %s: %w", leader, err)
	}
	st, err := probe.Stats()
	probe.Close()
	if err != nil {
		return fmt.Errorf("probing leader %s: %w", leader, err)
	}
	return followable(leader, st, scenario, scaleName, shards, digest)
}

// followable refuses a leader this node cannot replicate: the replica's
// base image must be the exact deterministic build the leader's log was
// opened on, down to where every node sits (the digest), so a
// mismatched build is an error rather than a silent divergence.
func followable(leader string, st wire.ServerStats, scenario, scaleName string, shards int, digest string) error {
	if !st.Durable {
		return fmt.Errorf("leader %s is not durable; a volatile server has no WAL to stream", leader)
	}
	if st.Scenario != scenario || st.Scale != scaleName || st.Shards != shards {
		return fmt.Errorf("build mismatch with leader %s: it runs %s/%s shards=%d, this follower %s/%s shards=%d",
			leader, st.Scenario, st.Scale, st.Shards, scenario, scaleName, shards)
	}
	if err := experiments.SameBase(st.BaseDigest, digest); err != nil {
		return fmt.Errorf("leader %s: %w", leader, err)
	}
	return nil
}

// cmdPromote asks a follower (`repro serve --follow`) to promote
// itself: stop streaming, catch up from the dead leader's on-disk log
// (its valid prefix holds every acknowledged commit — the zero-loss
// argument), and start admitting writes. Exits non-zero if the
// promoted watermark falls short of the leader's last advertised
// durable frontier, or if the promoted state fails its structural
// check.
func cmdPromote(args []string) error {
	fs := newFlags("promote")
	addr := fs.String("addr", "", "follower address (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("promote needs --addr")
	}
	rb, err := engine.DialRemote(*addr, 1)
	if err != nil {
		return err
	}
	defer rb.Close()
	rs, err := rb.Promote()
	if err != nil {
		return err
	}
	if rs.Watermark < rs.LeaderSeq {
		return fmt.Errorf("ACKED LOSS: promoted watermark %d < advertised leader frontier %d", rs.Watermark, rs.LeaderSeq)
	}
	if err := rb.Check(); err != nil {
		return fmt.Errorf("promoted state check: %w", err)
	}
	fmt.Printf("promote: %s now role=%s, zero acknowledged loss (watermark %d >= advertised leader frontier %d, reconnects %d)\n",
		*addr, rs.Role, rs.Watermark, rs.LeaderSeq, rs.Reconnects)
	return nil
}

// cmdLoadgen drives one open-loop point against a live `repro serve`
// address and prints its result line: --conns connections offering
// --arrival, coordinated-omission-safe latency, the server's admission
// knobs left exactly as the operator set them. A window with an error
// reply or with no reply at all exits non-zero.
func cmdLoadgen(args []string) error {
	fs := newFlags("loadgen")
	var (
		addr      = fs.String("addr", "", "server address (required; see 'repro serve')")
		scaleName = fs.String("scale", "ci", "client scale preset (run windows): "+strings.Join(experiments.ScaleNames(), "|"))
		conns     = fs.Int("conns", 32, "connections to drive at --arrival")
		arrival   = fs.String("arrival", "poisson:20000", "arrival process: poisson:RATE or uniform:RATE (total ops/sec)")
		traceEv   = fs.Int("trace-every", 0, "stamp every n-th request with a trace id (1 = all, 0 = off)")
		window    = fs.Duration("window", 0, "override the scale preset's measurement window")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("loadgen needs --addr")
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	a, err := loadgen.ParseArrival(*arrival)
	if err != nil {
		return err
	}
	if *window > 0 {
		sc.Measure = *window
	}
	res, st, err := experiments.RunOpenLoop(*addr, *conns, a, sc, *traceEv)
	if err != nil {
		return err
	}
	label := st.System
	if st.P99TargetUs > 0 {
		label += "+ctrl"
	}
	fmt.Printf("open-loop %s conns=%d %s: %.0f ops/s p50=%.0fµs p99=%.0fµs batch<=%d wait=%dµs target=%dµs\n",
		label, res.Conns, a, res.Throughput, us(res.Hist.Quantile(0.5)), us(res.Hist.Quantile(0.99)),
		st.BatchMax, st.AdmitWaitUs, st.P99TargetUs)
	return nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
