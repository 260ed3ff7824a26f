package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sihtm/internal/tsdb"
)

// sumRate sums the window rate of every series of a family.
func sumRate(d *tsdb.Dump, name string, window time.Duration) float64 {
	var sum float64
	for _, ds := range d.Find(name) {
		if r, ok := d.ScalarRate(ds, window); ok {
			sum += r
		}
	}
	return sum
}

// panelStages are the stage histograms of the panel's p99 line: the
// four that tile a request (admit + exec + ack + flush), then service,
// their admission-to-release sum the controller steers.
var panelStages = []struct{ name, label string }{
	{"sihtm_server_admission_wait_seconds", "admit"},
	{"sihtm_server_batch_exec_seconds", "exec"},
	{"sihtm_durable_ack_wait_seconds", "ack"},
	{"sihtm_server_reply_flush_seconds", "flush"},
	{"sihtm_server_service_seconds", "service"},
}

// RenderPanel writes one live-panel block for the polled frames: per
// node, commit throughput and abort-cause mix over the trailing window,
// the latest stage p99s, WAL and replication state, and the alert set.
func RenderPanel(w io.Writer, frames []Frame, window time.Duration) {
	for _, f := range frames {
		fmt.Fprintf(w, "== %s (%s)\n", f.Name, f.Base)
		if f.Err != nil {
			fmt.Fprintf(w, "  UNREACHABLE: %v\n\n", f.Err)
			continue
		}
		d := &f.TS
		fmt.Fprintf(w, "  window      %d points x %.0fms (%d scrape overruns)\n",
			len(d.TimesNs), d.IntervalMs, d.ScrapeOverruns)
		fmt.Fprintf(w, "  throughput  %.0f tx/s\n", sumRate(d, "sihtm_tm_commits_total", window))

		var mix []string
		for _, ac := range abortShares(&f.NodeData, window) {
			if ac.Share > 0 {
				mix = append(mix, fmt.Sprintf("%s %.1f%%", ac.Cause, 100*ac.Share))
			}
		}
		if len(mix) == 0 {
			mix = []string{"none"}
		}
		fmt.Fprintf(w, "  aborts      %s\n", strings.Join(mix, "  "))

		var stages []string
		for _, st := range panelStages {
			for _, ds := range d.Find(st.name) {
				if p99 := ds.LastP99Us(); p99 > 0 {
					stages = append(stages, fmt.Sprintf("%s %.0fµs", st.label, p99))
				}
			}
		}
		if len(stages) > 0 {
			fmt.Fprintf(w, "  stage p99   %s\n", strings.Join(stages, "  "))
		}

		if fsync := d.Find("sihtm_wal_fsync_seconds"); len(fsync) > 0 {
			line := fmt.Sprintf("  wal         fsync p99 %.0fµs", fsync[0].LastP99Us())
			if seq := d.Find("sihtm_wal_durable_seq"); len(seq) > 0 {
				line += fmt.Sprintf("  durable_seq %.0f", seq[0].Last())
			}
			fmt.Fprintf(w, "%s\n", line)
		}
		if lag := d.Find("sihtm_repl_lag"); len(lag) > 0 {
			line := fmt.Sprintf("  repl        lag %.0f", lag[0].Last())
			if wm := d.Find("sihtm_repl_watermark"); len(wm) > 0 {
				line += fmt.Sprintf("  watermark %.0f", wm[0].Last())
			}
			fmt.Fprintf(w, "%s\n", line)
		}

		var firing, pending []string
		for _, rs := range f.Alerts.Rules {
			switch rs.State {
			case "firing":
				firing = append(firing, fmt.Sprintf("%s (%.4g %s %g)", rs.Name, rs.Value, rs.Op, rs.Threshold))
			case "pending":
				pending = append(pending, rs.Name)
			}
		}
		sort.Strings(firing)
		sort.Strings(pending)
		switch {
		case len(firing) > 0:
			fmt.Fprintf(w, "  alerts      FIRING: %s\n", strings.Join(firing, ", "))
		case len(pending) > 0:
			fmt.Fprintf(w, "  alerts      pending: %s\n", strings.Join(pending, ", "))
		default:
			fmt.Fprintf(w, "  alerts      all %d rules healthy\n", len(f.Alerts.Rules))
		}
		if len(pending) > 0 && len(firing) > 0 {
			fmt.Fprintf(w, "              pending: %s\n", strings.Join(pending, ", "))
		}
		fmt.Fprintln(w)
	}
}
