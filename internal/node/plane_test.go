package node

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/loadgen"
	"sihtm/internal/report"
	"sihtm/internal/stats"
	"sihtm/internal/trace"
	"sihtm/internal/tsdb"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/ycsb"
)

// The tests in this file drive the observability plane a node mounts
// (Config.MetricsAddr) end to end: the /metrics scrape against the wire
// STATS totals, one trace reconstructed from client to follower replay,
// and the capacity alert's detect → resolve → explain loop.

// driveYCSB runs threads closed-loop sessions of the YCSB mix w over b
// (a remote or replica backend) until stop, which quiesces them; it runs
// at cleanup too, before b closes, since the session protocol panics on
// transport failure.
func driveYCSB(t *testing.T, b engine.Backend, w ycsb.Workload, system string, threads int) (stop func()) {
	t.Helper()
	spec, err := ycsb.Spec(ycsb.Config{Workload: w, Keys: testKeys, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := engine.New(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	workers := d.Workers(engine.NewRemoteSystem(system, threads))
	var halt atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(op func()) {
			defer wg.Done()
			for !halt.Load() {
				op()
			}
		}(workers(id))
	}
	var once sync.Once
	stop = func() { once.Do(func() { halt.Store(true); wg.Wait() }) }
	t.Cleanup(stop)
	return stop
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// httpGetOK fetches path from the observability plane and returns the
// body, failing on any non-200 status.
func httpGetOK(t *testing.T, addr, path string) string {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return string(b)
}

// parsePrometheus reads text exposition format into a map keyed by the
// full series name including its label set, exactly as rendered.
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed metrics value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if len(out) == 0 {
		t.Fatal("empty metrics scrape")
	}
	return out
}

// abortCauseLabels is the metric label value of every abort cause, in
// stats.AbortKind order: the /metrics contract.
var abortCauseLabels = [stats.NumAbortKinds]string{
	"conflict", "non_transactional", "capacity", "explicit", "other",
}

// TestScrapeUnderLoadMatchesFinalStats: a durable node with the adaptive
// admission controller on serves closed-loop YCSB-A, and mid-load its
// live /metrics is scraped the way an external Prometheus would. The
// scrape must carry the full abort-cause family for the system under
// test, a populated fsync-latency histogram, controller epochs and
// commits, and every scraped counter must be bounded by the server's
// final statistics: the scrape-time instruments and the wire STATS
// plane count the same events. All five concurrency controls run it,
// since the telemetry seam promises each the identical family set.
func TestScrapeUnderLoadMatchesFinalStats(t *testing.T) {
	for _, system := range []string{"htm", "si-htm", "p8tm", "silo", "sgl"} {
		t.Run(system, func(t *testing.T) {
			cfg := durableOf(systemConfig(system), t.TempDir())
			cfg.MetricsAddr = "127.0.0.1:0"
			cfg.Server.P99Target, cfg.Server.CtrlInterval = time.Millisecond, 5*time.Millisecond
			n := mustStart(t, cfg)
			stop := driveYCSB(t, dial(t, n), ycsb.A, system, 4)

			// Mid-load: acknowledged writes are durable and the
			// controller has closed an epoch.
			waitFor(t, "durable commits", func() bool { return n.Store.DurableSeq() >= 64 })
			waitFor(t, "a controller epoch", func() bool { return n.Srv.Snapshot().CtrlEpochs > 0 })
			maddr := n.Metrics.Addr()
			if body := httpGetOK(t, maddr, "/healthz"); !strings.Contains(body, "ok") {
				t.Fatalf("/healthz body %q", body)
			}
			httpGetOK(t, maddr, "/readyz")
			scraped := parsePrometheus(t, httpGetOK(t, maddr, "/metrics"))

			// Every abort cause is a registered series for this system,
			// present on the scrape even at zero.
			abortKey := func(cause string) string {
				return fmt.Sprintf(`sihtm_tm_aborts_total{cause=%q,system=%q}`, cause, system)
			}
			for _, cause := range abortCauseLabels {
				if _, ok := scraped[abortKey(cause)]; !ok {
					t.Fatalf("scrape is missing %s", abortKey(cause))
				}
			}
			if v := scraped["sihtm_wal_fsync_seconds_count"]; v < 1 {
				t.Fatalf("fsync histogram empty mid-load (count=%v)", v)
			}
			if v := scraped["sihtm_wal_fsyncs_total"]; v < 1 {
				t.Fatal("fsync counter zero mid-load")
			}
			if v := scraped["sihtm_ctrl_epochs_total"]; v < 1 {
				t.Fatal("controller epochs zero with P99 target set")
			}
			commits := scraped[fmt.Sprintf(`sihtm_tm_commits_total{path="update",system=%q}`, system)] +
				scraped[fmt.Sprintf(`sihtm_tm_commits_total{path="read_only",system=%q}`, system)]
			if commits < 1 {
				t.Fatal("no commits on the TM seam mid-load")
			}

			// Counters are monotone: the mid-load scrape must be bounded
			// by the final totals, or the scrape path and the STATS plane
			// count different events.
			stop()
			if err := n.Shutdown(); err != nil {
				t.Fatal(err)
			}
			final := n.Srv.Snapshot()
			for k, cause := range abortCauseLabels {
				if got, max := scraped[abortKey(cause)], final.Stats.Aborts[stats.AbortKind(k)]; got > float64(max) {
					t.Errorf("scraped %s = %v exceeds final total %d", abortKey(cause), got, max)
				}
			}
			if final.Telemetry == nil {
				t.Fatal("final STATS snapshot has no telemetry block")
			}
			if got, max := scraped["sihtm_wal_fsyncs_total"], final.Telemetry.WalFsyncs; got > float64(max) {
				t.Errorf("scraped fsyncs %v exceed final total %d", got, max)
			}
			if max := final.Stats.Commits; commits > float64(max) {
				t.Errorf("scraped commits %v exceed final total %d", commits, max)
			}
		})
	}
}

// traceSlack absorbs wall-versus-monotonic clock skew when comparing the
// client round trip against the server-side total.
const traceSlack = 2 * time.Millisecond

// traceIndex groups spans per trace id, one span per kind (the newest
// wins, which is fine: one coherent exemplar is all a test needs).
type traceIndex map[uint64]map[trace.Kind]trace.Span

func (ix traceIndex) add(spans []trace.Span) {
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		m := ix[s.Trace]
		if m == nil {
			m = make(map[trace.Kind]trace.Span, 8)
			ix[s.Trace] = m
		}
		m[s.Kind] = s
	}
}

// TestTraceReconstructedClientToReplica: a durable leader with one
// streaming follower serves a client that traces every request. The
// client ring, the leader's ring (fetched over /debug/traces) and the
// follower's ring must reconstruct at least one complete trace
//
//	client → admit → exec [→ ack] → flush → request → fsync → repl_apply
//
// on which the server stage sum equals the request span exactly, the
// client round trip bounds the server total, the follower replayed the
// same commit sequence, and a group-commit fsync covers it. The p99
// exemplar must be a client-originated trace id, closing the histogram
// → trace loop the exemplar table exists for.
func TestTraceReconstructedClientToReplica(t *testing.T) {
	for _, system := range []string{"si-htm", "sgl"} {
		t.Run(system, func(t *testing.T) {
			lcfg := durableOf(systemConfig(system), t.TempDir())
			lcfg.MetricsAddr = "127.0.0.1:0"
			leader := mustStart(t, lcfg)
			fol := mustStart(t, following(systemConfig(system), leader))

			rb := dial(t, leader)
			clientRing := rb.EnableTracing(1)
			stop := driveYCSB(t, rb, ycsb.A, system, 4)
			sv0 := leader.Srv.Snapshot()
			from := leader.Store.DurableSeq()
			waitFor(t, "traced durable commits", func() bool { return leader.Store.DurableSeq() >= from+64 })
			sv1 := leader.Srv.Snapshot()
			stop()

			// Acks ride fsyncs, so with the workers quiesced the durable
			// frontier covers every acknowledged commit; once the
			// follower's watermark reaches it, every traced commit still
			// in the rings has its repl_apply span recorded.
			frontier := leader.Store.DurableSeq()
			if !fol.Follower.WaitWatermark(frontier, 10*time.Second) {
				t.Fatalf("follower stuck at watermark %d, leader frontier %d", fol.Follower.Watermark(), frontier)
			}
			leaderSpans, _, err := trace.ReadJSONL(strings.NewReader(httpGetOK(t, leader.Metrics.Addr(), "/debug/traces")))
			if err != nil {
				t.Fatal(err)
			}
			if len(leaderSpans) == 0 {
				t.Fatal("/debug/traces returned no spans after a traced run")
			}
			ix := make(traceIndex)
			ix.add(clientRing.Snapshot(nil))
			ix.add(leaderSpans)
			ix.add(fol.Srv.TraceRing().Snapshot(nil))
			var fsyncs []trace.Span
			for _, s := range leaderSpans {
				if s.Kind == trace.KFsync {
					fsyncs = append(fsyncs, s)
				}
			}
			if len(fsyncs) == 0 {
				t.Fatal("no fsync spans on the leader ring after a durable run")
			}

			// Reconstruct: a complete trace has the client half, all
			// server stages, a follower replay of the same commit
			// sequence, and a group-commit fsync at or past it. Prefer one
			// with an ack span (a request that waited on durability).
			var best map[trace.Kind]trace.Span
			complete := 0
			for _, m := range ix {
				cl, okC := m[trace.KClient]
				req, okR := m[trace.KRequest]
				ra, okA := m[trace.KReplApply]
				_, okAd := m[trace.KAdmit]
				_, okEx := m[trace.KExec]
				_, okFl := m[trace.KFlush]
				if !(okC && okR && okA && okAd && okEx && okFl) || req.Seq == 0 {
					continue
				}
				if ra.Seq != req.Seq {
					t.Fatalf("trace %d: repl_apply seq %d != request seq %d", cl.Trace, ra.Seq, req.Seq)
				}
				covered := false
				for _, f := range fsyncs {
					if f.Seq >= req.Seq {
						covered = true
						break
					}
				}
				if !covered {
					continue
				}
				complete++
				if _, hasAck := m[trace.KAck]; best == nil || hasAck {
					best = m
				}
			}
			if complete == 0 {
				t.Fatalf("no complete end-to-end trace across %d ids (client=%d leader=%d follower=%d spans)",
					len(ix), clientRing.Total(), leader.Srv.TraceRing().Total(), fol.Srv.TraceRing().Total())
			}

			req := best[trace.KRequest]
			// admit + exec + ack + flush tile the request; a request that
			// was never parked has no ack span, and the missing key reads
			// as 0.
			stageSum := best[trace.KAdmit].Dur + best[trace.KExec].Dur + best[trace.KAck].Dur + best[trace.KFlush].Dur
			if stageSum != req.Dur {
				t.Fatalf("trace %d: stage sum %dns != request span %dns", req.Trace, stageSum, req.Dur)
			}
			if client := best[trace.KClient]; req.Dur > int64(traceSlack)+client.Dur {
				t.Fatalf("trace %d: server total %s exceeds client round trip %s",
					req.Trace, time.Duration(req.Dur), time.Duration(client.Dur))
			}
			if req.Trace&trace.ServerOriginBit != 0 {
				t.Fatalf("trace %d: client-sampled id carries ServerOriginBit", req.Trace)
			}

			// The histogram → trace bridge: the window's p99 resolves to
			// an exemplar, and with every request client-traced it is a
			// client-originated id.
			exID := leader.Srv.Exemplars().ForQuantile(sv1.Hist.Sub(sv0.Hist), 0.99)
			if exID == 0 {
				t.Fatal("p99 exemplar empty after a fully traced window")
			}
			if exID&trace.ServerOriginBit != 0 {
				t.Fatalf("p99 exemplar %d is server-origin with every request traced", exID)
			}
		})
	}
}

// TestCapacityAlertFiresResolvesAndIsReported closes the observability
// loop on the paper's capacity cliff: an htm node is driven over the
// TMCAM by open-loop overload, with the admission controller off and the
// batch bound and grace pinned past the capacity boundary (si-htm's
// untracked ROT reads would hide the cliff, the paper's point). The
// node's tsdb + alert stack must detect the cliff (the capacity-abort
// burn-rate rule fires under the load), see it heal (the rule resolves
// once the load drops), and explain it (the incident report carries the
// firing → resolved timeline with a request-trace exemplar inside the
// firing window).
func TestCapacityAlertFiresResolvesAndIsReported(t *testing.T) {
	cfg := systemConfig("htm")
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.TSDB = tsdb.Config{Interval: 20 * time.Millisecond, Retention: 1024}
	cfg.Server.BatchMax, cfg.Server.AdmitWait = 256, 10*time.Millisecond
	cfg.Server.TraceLog = io.Discard // transitions are asserted, not printed
	n := mustStart(t, cfg)

	// Overload: arrivals the server cannot keep up with, every request
	// trace-stamped so the firing window has exemplars in the ring.
	res, err := loadgen.Run(loadgen.Config{
		Addr:       n.Addr.String(),
		Conns:      32,
		Arrival:    loadgen.Arrival{Process: "poisson", Rate: 20000},
		Keys:       testKeys,
		Warmup:     100 * time.Millisecond,
		Measure:    400 * time.Millisecond,
		Seed:       1,
		TraceEvery: 1,
	})
	if err != nil {
		t.Fatalf("overload: %v", err)
	}
	if res.Errs > 0 {
		t.Fatalf("%d error replies under overload", res.Errs)
	}
	fired := false
	for _, ev := range n.Alerts.Dump().Events {
		fired = fired || ev.Rule == alert.RuleCapacityShare && ev.To == "firing"
	}
	if !fired {
		for _, rs := range n.Alerts.Dump().Rules {
			if rs.Name == alert.RuleCapacityShare {
				t.Fatalf("capacity alert never fired under overload (state=%s value=%.4g threshold=%g)",
					rs.State, rs.Value, rs.Threshold)
			}
		}
		t.Fatal("capacity alert never fired under overload")
	}

	// Recovery: the load is gone; moderate knobs drain the backlog, and
	// the fast burn window ages the cliff out.
	if err := dial(t, n).Ctrl(wire.Ctrl{BatchMax: 32, AdmitWaitUs: -1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the capacity alert to resolve", func() bool {
		st, ok := n.Alerts.State(alert.RuleCapacityShare)
		return ok && st != alert.StateFiring
	})

	// The incident report, collected over the HTTP surfaces `repro
	// report` reads.
	nd, err := report.Collect("leader", "http://"+n.Metrics.Addr())
	if err != nil {
		t.Fatal(err)
	}
	an := report.Analyze(report.Inputs{Nodes: []report.NodeData{nd}})
	var sawFiring, sawResolved bool
	for _, ev := range an.Timeline {
		if ev.Rule == alert.RuleCapacityShare {
			sawFiring = sawFiring || ev.To == "firing"
			sawResolved = sawResolved || ev.To == "resolved"
		}
	}
	if !sawFiring || !sawResolved {
		t.Fatalf("report timeline incomplete (firing=%v resolved=%v, %d events)", sawFiring, sawResolved, len(an.Timeline))
	}
	exemplar := false
	for _, ex := range an.Exemplars {
		exemplar = exemplar || ex.Rule == alert.RuleCapacityShare && ex.Trace != 0
	}
	if !exemplar {
		t.Fatalf("no trace exemplar inside the firing window (%d spans in ring)", an.SpanCounts["leader"])
	}
	var md bytes.Buffer
	if err := report.Render(&md, report.Inputs{Title: "capacity cliff", Nodes: []report.NodeData{nd}}, an); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), alert.RuleCapacityShare) {
		t.Fatal("rendered report is missing the capacity rule")
	}

	// The GET/RMW mix neither created nor destroyed keys.
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
	checkPopulation(t, "after the overload", cfg.Server.Backend)
}
