// Package node assembles one serving node from an already-built
// machine, backend and tm.System: the durable store, the replication
// follower, the wire server, the fuzzy checkpointer and the
// observability plane, with one start order and one teardown order.
// `repro serve` and the serving tests start their nodes here; nothing
// else calls the layer constructors.
//
// Start order — each step depends on the ones before it:
//
//  1. Durable store: create the run directory, sweep a checkpoint left
//     by an earlier run (a fresh WAL truncates wal.log, so an old
//     heap.ckpt belongs to a different history), open the log, and
//     install it as the machine's commit hook, which every commit of
//     the System reaches. The hook is installed before anything can
//     commit, so sequence numbers respect the commit order from the
//     first transaction on.
//  2. Follower applier (built, not yet streaming).
//  3. Wire server: New, Listen, and the Serve goroutine.
//  4. Periodic checkpointer, then the follower's stream — only once the
//     listener is bound, so a node that fails to start never leaves a
//     ticker or a stream behind.
//  5. Observability plane: tsdb over the server's registry, the
//     role-derived alert rules evaluated on every scrape, then the HTTP
//     listener, so /debug/timeseries and /debug/alerts are live from
//     the first request.
//
// Shutdown is the reverse, and the only teardown path (Start calls it
// on a half-started node):
//
//  1. The HTTP listener and the scrape loop: the readiness probe and the
//     scraped gauges read server and follower state the steps below
//     invalidate.
//  2. The checkpointer, before the drain: it must not race Drain's
//     final checkpoint on the same path, nor outlive the store.
//  3. Drain the server — admitted requests commit and are answered, a
//     drain-time checkpoint is written if Server.CheckpointPath is set,
//     the log is synced — and collect Serve's error.
//  4. The follower.
//  5. The store, last: everything above may still append to its log.
package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/replica"
	"sihtm/internal/server"
	"sihtm/internal/telemetry"
	"sihtm/internal/tm"
	"sihtm/internal/trace"
	"sihtm/internal/tsdb"
	"sihtm/internal/workload/engine"
)

// LogPath and CkptPath name the two files of a durable run directory.
func LogPath(dir string) string  { return filepath.Join(dir, "wal.log") }
func CkptPath(dir string) string { return filepath.Join(dir, "heap.ckpt") }

// Config describes one node. Every setting belongs to the layer whose
// Config carries it; the node adds none of its own.
type Config struct {
	// Addr is the wire listen address ("127.0.0.1:0" picks an ephemeral
	// loopback port). Empty starts the node headless: a durable store and
	// its checkpointer without a wire server, for tests that run
	// transactions on Node.System in process. Nothing acknowledges there:
	// Atomic returns at commit, and a test that needs a commit durable
	// waits with Store.Log().WaitDurable or syncs.
	Addr string
	// Machine is the simulated machine Server.System runs on; its heap is
	// what the store logs and what a follower replays into.
	Machine *htm.Machine
	// Server is passed to server.New. Backend and System are the caller's
	// bare build (Backend may be nil on a headless node); the node
	// decorates them durably and fills Store and Follower itself.
	// CheckpointPath, when set (CkptPath(Dir)), makes the drain write a
	// final checkpoint; unset, recovery has the last fuzzy checkpoint and
	// the log prefix alone — the image a SIGKILL leaves. TraceLog also
	// receives the alert engine's transition lines.
	Server server.Config
	// Dir, when set, makes the node a durable leader logging to
	// LogPath(Dir).
	Dir string
	// CkptEvery is the fuzzy checkpoint interval into CkptPath(Dir)
	// (0 = no periodic checkpoints).
	CkptEvery time.Duration
	// Follower, when Dial is set, makes the node a read replica of the
	// leader Dial reaches; Heap is filled from Machine. Excludes Dir.
	Follower replica.FollowerConfig
	// MetricsAddr, when set, mounts the observability plane there:
	// /metrics, /healthz, /readyz, /debug/pprof, /debug/traces,
	// /debug/timeseries and /debug/alerts.
	MetricsAddr string
	// TSDB is the plane's self-scrape cadence and retention.
	TSDB tsdb.Config
}

// Node is one running node. The exported fields are set by Start, nil
// where the role has no such part, and stay readable after Shutdown
// (final statistics, heap comparison).
type Node struct {
	// System and Backend are what transactions run on: the caller's
	// build (the System with the store's commit hooks installed, the
	// Backend durably decorated, when the node has a store).
	System  tm.System
	Backend engine.Backend

	Srv      *server.Server
	Addr     net.Addr
	Store    *durable.Store
	Follower *replica.Follower

	Metrics *telemetry.Server
	TS      *tsdb.Store
	Alerts  *alert.Engine

	haltCkpt func() error  // nil without a periodic checkpointer
	served   chan struct{} // closed when Serve returns
	serveErr error

	shutdown    sync.Once
	shutdownErr error
}

// Start builds and starts the node cfg describes. On error nothing is
// left running and nothing is left open.
func Start(cfg Config) (*Node, error) {
	follower := cfg.Follower.Dial != nil
	switch {
	case cfg.Machine == nil || cfg.Server.System == nil:
		return nil, errors.New("node: Config needs Machine and Server.System")
	case follower && cfg.Dir != "":
		return nil, errors.New("node: a follower cannot also serve durably")
	case cfg.Addr == "" && (follower || cfg.MetricsAddr != ""):
		return nil, errors.New("node: a headless node has no server to follow with or observe")
	}
	n := &Node{System: cfg.Server.System, Backend: cfg.Server.Backend}
	fail := func(err error) (*Node, error) {
		n.Shutdown()
		return nil, err
	}
	var err error

	heap := cfg.Machine.Heap()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return fail(err)
		}
		for _, stale := range []string{CkptPath(cfg.Dir), CkptPath(cfg.Dir) + ".tmp"} {
			if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
				return fail(err)
			}
		}
		n.Store, err = durable.Open(heap, LogPath(cfg.Dir), cfg.Machine.Topology().MaxThreads(), durable.Config{})
		if err != nil {
			return fail(err)
		}
		n.Store.Attach(n.System, cfg.Machine)
		if n.Backend != nil {
			n.Backend = engine.NewDurableBackend(n.Backend, n.Store)
		}
	}
	if follower {
		fc := cfg.Follower
		fc.Heap = heap
		if n.Follower, err = replica.NewFollower(fc); err != nil {
			return fail(err)
		}
	}

	if cfg.Addr != "" {
		scfg := cfg.Server
		scfg.Backend, scfg.System = n.Backend, n.System
		scfg.Store, scfg.Follower = n.Store, n.Follower
		if n.Srv, err = server.New(scfg); err != nil {
			return fail(err)
		}
		if n.Addr, err = n.Srv.Listen(cfg.Addr); err != nil {
			return fail(err)
		}
		n.served = make(chan struct{})
		go func() {
			n.serveErr = n.Srv.Serve()
			close(n.served)
		}()
	}
	if n.Store != nil && cfg.CkptEvery > 0 {
		n.haltCkpt = startCheckpointer(n.Store, CkptPath(cfg.Dir), cfg.CkptEvery)
	}
	if follower {
		n.Follower.Start()
	}
	if cfg.MetricsAddr != "" {
		if err := n.observe(cfg); err != nil {
			return fail(err)
		}
	}
	return n, nil
}

// observe mounts the observability plane on a serving node.
func (n *Node) observe(cfg Config) error {
	reg := n.Srv.Telemetry()
	n.TS = tsdb.New(reg, cfg.TSDB)
	logw := cfg.Server.TraceLog
	if logw == nil {
		logw = os.Stderr
	}
	var err error
	n.Alerts, err = alert.New(n.TS, alert.DefaultRules(alert.RuleOptions{
		System:    n.System.Name(),
		Interval:  n.TS.Interval(),
		P99Target: cfg.Server.P99Target,
		Durable:   n.Store != nil,
		Follower:  n.Follower != nil,
		Leader:    n.Store != nil, // durable leaders own the replication publisher
	}), logw)
	if err != nil {
		return fmt.Errorf("node: alert rules: %w", err)
	}
	// The scrape loop inherits the labels pprof.Do sets around its start.
	role := trace.RoleLeader
	if n.Follower != nil {
		role = trace.RoleFollower
	}
	pprof.Do(trace.StageLabels(trace.StageScrape, role), pprof.Labels(),
		func(context.Context) { n.TS.Start() })
	n.Metrics, err = telemetry.ListenAndServe(cfg.MetricsAddr, reg, readyProbe(n.Srv.Draining, n.Alerts),
		telemetry.Extra{Path: "/debug/traces", Handler: trace.Handler(n.Srv.TraceRing())},
		telemetry.Extra{Path: "/debug/timeseries", Handler: tsdb.Handler(n.TS)},
		telemetry.Extra{Path: "/debug/alerts", Handler: alert.Handler(n.Alerts)})
	if err != nil {
		return fmt.Errorf("node: metrics listener: %w", err)
	}
	return nil
}

// readyProbe builds the /readyz callback: a draining server admits
// nothing, and a follower whose watermark-stall rule fires serves an
// ever-staler snapshot. The rule is the one stall detector, so the
// alert and readiness are the same signal; every other role has no such
// rule and reads ready until it drains.
func readyProbe(draining func() bool, alerts *alert.Engine) func() error {
	return func() error {
		if draining() {
			return errors.New("draining")
		}
		if st, _ := alerts.State(alert.RuleWatermarkStall); st == alert.StateFiring {
			return fmt.Errorf("replication stalled: %s is firing", alert.RuleWatermarkStall)
		}
		return nil
	}
}

// Served is closed once the accept loop has returned; before Shutdown
// that means the listener failed, and Shutdown reports why. Nil on a
// headless node.
func (n *Node) Served() <-chan struct{} { return n.served }

// Shutdown stops the node in the package's teardown order and returns
// what the steps reported, Serve's error included. It is safe on a
// half-started node, and repeated calls return the first call's result.
func (n *Node) Shutdown() error {
	n.shutdown.Do(func() {
		var errs []error
		if n.Metrics != nil {
			errs = append(errs, n.Metrics.Close())
		}
		if n.TS != nil {
			n.TS.Close()
		}
		if n.haltCkpt != nil {
			if err := n.haltCkpt(); err != nil {
				errs = append(errs, fmt.Errorf("checkpointer: %w", err))
			}
		}
		if n.Srv != nil {
			errs = append(errs, n.Srv.Drain())
		}
		if n.served != nil {
			<-n.served
			if n.serveErr != nil {
				errs = append(errs, fmt.Errorf("serve: %w", n.serveErr))
			}
		}
		if n.Follower != nil {
			errs = append(errs, n.Follower.Close())
		}
		if n.Store != nil {
			errs = append(errs, n.Store.Close())
		}
		n.shutdownErr = errors.Join(errs...)
	})
	return n.shutdownErr
}

// startCheckpointer writes fuzzy checkpoints on a ticker until halt,
// which stops the goroutine and reports any checkpoint failure.
// Checkpoints run concurrently with the served workload; they must not
// perturb correctness.
func startCheckpointer(store *durable.Store, path string, every time.Duration) (halt func() error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var err error
	go func() {
		// Only a durable leader has a store to checkpoint.
		trace.LabelGoroutine(trace.StageCheckpoint, trace.RoleLeader)
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err = store.WriteCheckpoint(path); err != nil {
					return
				}
			}
		}
	}()
	return func() error {
		close(stop)
		<-done
		return err
	}
}
