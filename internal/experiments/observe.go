package experiments

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sihtm/internal/node"
	"sihtm/internal/results"
	"sihtm/internal/stats"
)

// The net-observe cell proves the observability plane end to end: a
// durable self-hosted server runs under load with the adaptive
// admission controller on, and halfway through the measurement window
// the cell scrapes the live /metrics endpoint like an external
// Prometheus would. The scrape must carry the full abort-cause family
// for the system under test, a populated fsync-latency histogram and
// controller-epoch activity — and every scraped counter must be
// consistent with (bounded by) the server's final statistics, proving
// the scrape-time instruments and the wire STATS plane count the same
// events.

// netObserveThreads is the cell's client worker count.
const netObserveThreads = 4

// netObserveCtrlInterval keeps the admission controller ticking fast
// enough that epochs accumulate within half a CI-scale measurement
// window.
const netObserveCtrlInterval = 5 * time.Millisecond

// abortCauseLabels is the metric label value of every abort cause, in
// stats.AbortKind order — the /metrics contract the cell asserts.
var abortCauseLabels = [stats.NumAbortKinds]string{
	"conflict", "non_transactional", "capacity", "explicit", "other",
}

func netObserveEntry() Entry {
	e := Entry{
		ID:       "net-observe",
		Title:    "Observability plane: live /metrics scrape under load, checked against final server statistics",
		Workload: "net",
		// All five concurrency controls: the telemetry seam's contract is
		// that every system reports the identical family set.
		Systems: []string{"htm", "si-htm", "p8tm", "silo", "sgl"},
		Params: fmt.Sprintf("ycsb-a durable over loopback batch=%d ctrl-interval=%s scrape=mid-measure",
			netBatchDefault, netObserveCtrlInterval),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		n := sc.cap(netObserveThreads)
		// The durable node runs with its own observability plane on, so the
		// scrape goes through the same listener, handlers and readiness
		// probe `repro serve --metrics-addr` mounts.
		spec := netDurableSpec(system, n, sc)
		spec.p99Target, spec.ctrlInterval = time.Millisecond, netObserveCtrlInterval
		spec.observe = true

		// The mid-measure observer stashes the node (for the final
		// consistency check) and the scraped counter values.
		var observed *node.Node
		var scraped map[string]float64
		mid := func(c *cluster) error {
			observed = c.leader.node
			maddr := observed.Metrics.Addr()
			if body, err := httpGetOK(maddr, "/healthz"); err != nil {
				return fmt.Errorf("net-observe: %w", err)
			} else if !strings.Contains(body, "ok") {
				return fmt.Errorf("net-observe: /healthz body %q", body)
			}
			if _, err := httpGetOK(maddr, "/readyz"); err != nil {
				return fmt.Errorf("net-observe: serving host not ready: %w", err)
			}
			body, err := httpGetOK(maddr, "/metrics")
			if err != nil {
				return fmt.Errorf("net-observe: %w", err)
			}
			scraped, err = parsePrometheus(body)
			if err != nil {
				return fmt.Errorf("net-observe: %w", err)
			}

			// Every abort cause must be a registered series for this system,
			// present on the scrape even at zero.
			for _, cause := range abortCauseLabels {
				key := fmt.Sprintf(`sihtm_tm_aborts_total{cause=%q,system=%q}`, cause, system)
				if _, ok := scraped[key]; !ok {
					return fmt.Errorf("net-observe: scrape is missing %s", key)
				}
			}
			// Durable server under acknowledged load: fsyncs must have
			// happened and been observed by the latency histogram.
			if v := scraped["sihtm_wal_fsync_seconds_count"]; v < 1 {
				return fmt.Errorf("net-observe: fsync histogram empty mid-load (count=%v)", v)
			}
			if v := scraped["sihtm_wal_fsyncs_total"]; v < 1 {
				return fmt.Errorf("net-observe: fsync counter zero mid-load")
			}
			// The adaptive controller is on with a fast interval: epochs
			// must be accumulating.
			if v := scraped["sihtm_ctrl_epochs_total"]; v < 1 {
				return fmt.Errorf("net-observe: controller epochs zero with P99 target set")
			}
			// Commits must be flowing through the TM seam.
			upd := scraped[fmt.Sprintf(`sihtm_tm_commits_total{path="update",system=%q}`, system)]
			ro := scraped[fmt.Sprintf(`sihtm_tm_commits_total{path="read_only",system=%q}`, system)]
			if upd+ro < 1 {
				return fmt.Errorf("net-observe: no commits on the TM seam mid-load")
			}
			return nil
		}

		r, err := runHostedPoint(e, spec, NetPoint{Threads: n}, sc, mid)
		if err != nil {
			return fmt.Errorf("net-observe %s: %w", system, err)
		}
		if observed == nil || scraped == nil {
			return fmt.Errorf("net-observe %s: mid-measure scrape never ran", system)
		}

		// Counters are monotone: the mid-flight scrape must be bounded by
		// the final totals, or the scrape path and the STATS plane are
		// counting different events.
		final := observed.Srv.Snapshot()
		for k, cause := range abortCauseLabels {
			key := fmt.Sprintf(`sihtm_tm_aborts_total{cause=%q,system=%q}`, cause, system)
			if got, max := scraped[key], final.Stats.Aborts[stats.AbortKind(k)]; got > float64(max) {
				return fmt.Errorf("net-observe %s: scraped %s = %v exceeds final total %d", system, key, got, max)
			}
		}
		if final.Telemetry == nil {
			return fmt.Errorf("net-observe %s: final STATS snapshot has no telemetry block", system)
		}
		if got, max := scraped["sihtm_wal_fsyncs_total"], final.Telemetry.WalFsyncs; got > float64(max) {
			return fmt.Errorf("net-observe %s: scraped fsyncs %v exceed final total %d", system, got, max)
		}
		upd := scraped[fmt.Sprintf(`sihtm_tm_commits_total{path="update",system=%q}`, system)]
		ro := scraped[fmt.Sprintf(`sihtm_tm_commits_total{path="read_only",system=%q}`, system)]
		if got, max := upd+ro, final.Stats.Commits; got > float64(max) {
			return fmt.Errorf("net-observe %s: scraped commits %v exceed final total %d", system, got, max)
		}

		r.CtrlBatchMax = final.BatchMax
		r.CtrlAdmitWaitUs = final.AdmitWaitUs
		// The post-drain snapshot reports the target as off (stopController
		// zeroes it); the batch/grace knobs freeze at their converged
		// values. Record the target the run was configured with.
		r.CtrlP99TargetUs = int(spec.p99Target / time.Microsecond)
		hook(r)
		return nil
	}
	return e
}

// httpGetOK fetches path from the observability plane and returns the
// body, failing on any non-200 status.
func httpGetOK(addr, path string) (string, error) {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return string(b), fmt.Errorf("GET %s: status %d (%s)", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

// parsePrometheus reads text exposition format into a map keyed by the
// full series name including its label set, exactly as rendered.
func parsePrometheus(body string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty metrics scrape")
	}
	return out, nil
}
