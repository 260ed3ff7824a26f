package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/loadgen"
	"sihtm/internal/report"
	"sihtm/internal/results"
	"sihtm/internal/tsdb"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// The net-slo cell closes the observability loop end to end: a
// self-hosted htm server is driven into the paper's capacity cliff by
// open-loop overload with the admission controller disabled and the
// batch bound pinned past the TMCAM capacity boundary; the in-process
// tsdb + alert stack must detect the cliff (the capacity-abort
// burn-rate rule fires while the load runs), see it heal (the rule
// resolves after the load drops and the backlog drains), and explain it
// (the incident report carries the firing→resolved timeline with at
// least one request-trace exemplar inside the firing window).

// sloConns is the open-loop connection count of the overload phase.
const sloConns = 32

// sloArrivalRate is the total offered load (ops/sec): far above what 4
// shards serve at batch 256 under htm capacity aborts, so the cliff is
// unambiguous.
const sloArrivalRate = 20000

// sloScrapeInterval picks the tsdb cadence: ~20 evaluation points per
// measurement window, clamped to a sane range.
func sloScrapeInterval(sc Scale) time.Duration {
	iv := sc.Measure / 20
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 100*time.Millisecond {
		iv = 100 * time.Millisecond
	}
	return iv
}

func netSLOEntry() Entry {
	e := Entry{
		ID:       "net-slo",
		Title:    "SLO loop: capacity-cliff alert fires under open-loop overload, resolves on recovery, incident report explains it",
		Workload: "net",
		// htm only: at batch 256 the read/write sets overrun L1 and the
		// capacity-abort share deterministically exceeds the 2% ceiling;
		// si-htm's ROT reads would hide the cliff (the paper's point).
		Systems: []string{"htm"},
		Params: fmt.Sprintf("ycsb-a over loopback, shards=%d, uncontrolled batch=%d grace=%dµs, burn-rate capacity rule, in-process scrape+eval",
			connScaleShards, connScaleUncontrolledBatch, connScaleUncontrolledGrace),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		sc = connScaleWindows(sc)
		// A volatile node with its own observability plane on: tsdb over the
		// live registry, the default rule set (capacity rule only — no SLO
		// target, no WAL, no replica) evaluated on every scrape, and the
		// debug endpoints the report is collected from.
		interval := sloScrapeInterval(sc)
		c, err := startCluster(clusterSpec{
			y: ycsbA, system: system, threads: connScaleShards,
			observe: true, tsdb: tsdb.Config{Interval: interval, Retention: 1024},
		}, sc)
		if err != nil {
			return err
		}
		defer c.close()
		eng := c.leader.node.Alerts

		addr := c.addr()
		rb, err := engine.DialRemote(addr, 1)
		if err != nil {
			return err
		}
		defer rb.Close()
		// Pin the throughput-greedy knobs that drive batches past the
		// capacity boundary; the controller is off (no p99 target), so
		// nothing fights the overload.
		if err := connScaleVariant(rb, false, 0); err != nil {
			return err
		}

		// Overload phase: open-loop arrivals the server cannot keep up
		// with, every request trace-stamped so the firing window has
		// exemplars in the ring.
		arrival := loadgen.Arrival{Process: "poisson", Rate: sloArrivalRate}
		overloadStart := time.Now()
		r, err := runOpenLoopPoint(e, rb, addr, system, c.keys, sloConns, arrival, sc, 1)
		if err != nil {
			return fmt.Errorf("net-slo overload: %w", err)
		}
		// The cliff must have been detected while (or immediately after)
		// the load ran.
		var fired *alert.Event
		for _, ev := range eng.Dump().Events {
			if ev.Rule == alert.RuleCapacityShare && ev.To == "firing" {
				fired = &ev
				break
			}
		}
		if fired == nil {
			d := eng.Dump()
			detail := ""
			for _, rs := range d.Rules {
				if rs.Name == alert.RuleCapacityShare {
					detail = fmt.Sprintf(" (state=%s value=%.4g threshold=%g)", rs.State, rs.Value, rs.Threshold)
				}
			}
			return fmt.Errorf("net-slo: capacity alert never fired under overload%s", detail)
		}
		loadEnd := time.Now()

		// Recovery phase: the load is gone; drain the backlog, restore
		// moderate knobs, and wait for the fast burn window to age the
		// cliff out. The resolve deadline is generous — the engine only
		// needs the fast window (4 intervals) plus the backlog drain.
		if err := quiesceServer(rb); err != nil {
			return fmt.Errorf("net-slo recovery: %w", err)
		}
		if err := rb.Ctrl(wire.Ctrl{BatchMax: netBatchDefault, AdmitWaitUs: -1}); err != nil {
			return err
		}
		var resolvedAt time.Time
		deadline := time.Now().Add(30 * interval)
		for {
			if st, ok := eng.State(alert.RuleCapacityShare); ok && st != alert.StateFiring {
				resolvedAt = time.Now()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("net-slo: capacity alert did not resolve within %s of load drop", 30*interval)
			}
			time.Sleep(interval / 2)
		}

		// Incident report, collected over the HTTP surfaces `repro report`
		// reads.
		nd, err := report.Collect("leader", "http://"+c.leader.node.Metrics.Addr())
		if err != nil {
			return fmt.Errorf("net-slo: collect: %w", err)
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
			return fmt.Errorf("net-slo: report timeline incomplete (firing=%v resolved=%v, %d events)",
				sawFiring, sawResolved, len(an.Timeline))
		}
		exemplar := false
		for _, ex := range an.Exemplars {
			if ex.Rule == alert.RuleCapacityShare && ex.Trace != 0 {
				exemplar = true
				break
			}
		}
		if !exemplar {
			return fmt.Errorf("net-slo: no trace exemplar inside the firing window (%d spans in ring)",
				an.SpanCounts["leader"])
		}
		var md bytes.Buffer
		if err := report.Render(&md, report.Inputs{Title: "net-slo", Nodes: []report.NodeData{nd}}, an); err != nil {
			return err
		}
		if md.Len() == 0 || !strings.Contains(md.String(), alert.RuleCapacityShare) {
			return fmt.Errorf("net-slo: rendered report is empty or missing the capacity rule")
		}

		if err := c.verify(); err != nil {
			return err
		}

		var firings uint64
		for _, ev := range an.Timeline {
			if ev.To == "firing" {
				firings++
			}
		}
		r.AlertsFired = firings
		r.AlertTimeToFireMs = float64(fired.AtNs-overloadStart.UnixNano()) / 1e6
		r.AlertTimeToResolveMs = float64(resolvedAt.Sub(loadEnd)) / float64(time.Millisecond)
		hook(r)
		return nil
	}
	return e
}
