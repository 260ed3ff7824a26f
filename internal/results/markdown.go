package results

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// axisLabels returns the x-axis of a record group: the swept Param
// values when present (ablation sweeps), otherwise thread counts.
// byParam reports which case applies.
func axisLabels(recs []Record) (labels []string, byParam bool) {
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Param != "" {
			byParam = true
		}
	}
	if byParam {
		for _, r := range recs {
			if !seen[r.Param] {
				seen[r.Param] = true
				labels = append(labels, r.Param)
			}
		}
		return labels, true
	}
	var threads []int
	ti := map[int]bool{}
	for _, r := range recs {
		if !ti[r.Threads] {
			ti[r.Threads] = true
			threads = append(threads, r.Threads)
		}
	}
	sort.Ints(threads)
	for _, n := range threads {
		labels = append(labels, fmt.Sprintf("%d", n))
	}
	return labels, false
}

func systemsOf(recs []Record) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range recs {
		if !seen[r.System] {
			seen[r.System] = true
			names = append(names, r.System)
		}
	}
	return names
}

func find(recs []Record, system, label string, byParam bool) (Record, bool) {
	for _, r := range recs {
		if r.System != system {
			continue
		}
		if byParam && r.Param == label {
			return r, true
		}
		if !byParam && fmt.Sprintf("%d", r.Threads) == label {
			return r, true
		}
	}
	return Record{}, false
}

// table renders one panel as a GitHub-flavored markdown table: caption,
// one row per x-axis point (threads or swept param), one column per
// system, each cell rendered by cell ("" = no such record or nothing to
// show, drawn as a dash).
func table(w io.Writer, caption string, recs []Record, cell func(Record) string) {
	labels, byParam := axisLabels(recs)
	systems := systemsOf(recs)
	axis := "threads"
	if byParam {
		axis = "param"
	}
	fmt.Fprintf(w, "**%s**\n\n", caption)
	fmt.Fprintf(w, "| %s |", axis)
	for _, s := range systems {
		fmt.Fprintf(w, " %s |", s)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---|", len(systems)))
	for _, label := range labels {
		fmt.Fprintf(w, "| %s |", label)
		for _, s := range systems {
			text := ""
			if r, ok := find(recs, s, label, byParam); ok {
				text = cell(r)
			}
			if text == "" {
				text = "–"
			}
			fmt.Fprintf(w, " %s |", text)
		}
		fmt.Fprintln(w)
	}
}

// MarkdownThroughput renders one experiment's throughput panel.
func MarkdownThroughput(w io.Writer, title string, recs []Record) {
	table(w, title+" — throughput (tx/s)", recs, func(r Record) string {
		return fmt.Sprintf("%.0f", r.Throughput)
	})
}

// MarkdownAborts renders one experiment's abort-breakdown panel: per
// cell, "tx/non-tx/capacity" percentages of attempts.
func MarkdownAborts(w io.Writer, title string, recs []Record) {
	table(w, title+" — aborts (% of attempts: transactional/non-transactional/capacity)", recs, func(r Record) string {
		return fmt.Sprintf("%.1f/%.1f/%.1f",
			r.AbortPercent(r.AbortsTransactional),
			r.AbortPercent(r.AbortsNonTransactional),
			r.AbortPercent(r.AbortsCapacity))
	})
}

// MarkdownLatency renders one experiment's service-latency panel —
// per cell "p50/p99 µs (avg batch ops)" — for records carrying the
// networked layer's latency fields.
func MarkdownLatency(w io.Writer, title string, recs []Record) {
	table(w, title+" — per-op latency (p50/p99 µs, avg ops per transaction)", recs, func(r Record) string {
		if r.LatencyP99Us <= 0 {
			return ""
		}
		return fmt.Sprintf("%.0f/%.0f (%.1f)", r.LatencyP50Us, r.LatencyP99Us, r.BatchAvgOps)
	})
}

// MarkdownController renders the admission-knob panel for cells whose
// server ran with explicit admission settings: per cell the batch
// bound, the grace period and — when the adaptive controller ran — the
// p99 target it steered toward.
func MarkdownController(w io.Writer, title string, recs []Record) {
	table(w, title+" — admission knobs at window end (batch bound / grace µs / p99 target µs)", recs, func(r Record) string {
		switch {
		case r.CtrlBatchMax == 0:
			return ""
		case r.CtrlP99TargetUs > 0:
			return fmt.Sprintf("%d / %d / %d", r.CtrlBatchMax, r.CtrlAdmitWaitUs, r.CtrlP99TargetUs)
		default:
			return fmt.Sprintf("%d / %d / off", r.CtrlBatchMax, r.CtrlAdmitWaitUs)
		}
	})
}

// MarkdownTelemetry renders the server-telemetry panel for cells that
// scraped the instrument registry over their window: the admission-wait
// p99 and, on durable servers, the window's fsync count, fsync p99 and
// commit-ack wait p99.
func MarkdownTelemetry(w io.Writer, title string, recs []Record) {
	table(w, title+" — server telemetry (admit-wait p99 µs; fsyncs, fsync p99 µs, ack-wait p99 µs)", recs, func(r Record) string {
		switch {
		case r.AdmitWaitP99Us == 0 && r.FsyncsTotal == 0:
			return ""
		case r.FsyncsTotal > 0:
			return fmt.Sprintf("%.0f; %d, %.0f, %.0f", r.AdmitWaitP99Us, r.FsyncsTotal, r.FsyncP99Us, r.AckWaitP99Us)
		default:
			return fmt.Sprintf("%.0f; volatile", r.AdmitWaitP99Us)
		}
	})
}

// hasTelemetry reports whether any record carries scraped server
// telemetry.
func hasTelemetry(recs []Record) bool {
	for _, r := range recs {
		if r.AdmitWaitP99Us > 0 || r.FsyncsTotal > 0 {
			return true
		}
	}
	return false
}

// hasController reports whether any record carries admission-knob
// fields.
func hasController(recs []Record) bool {
	for _, r := range recs {
		if r.CtrlBatchMax > 0 {
			return true
		}
	}
	return false
}

// hasLatency reports whether any record carries the networked layer's
// latency fields.
func hasLatency(recs []Record) bool {
	for _, r := range recs {
		if r.LatencyP99Us > 0 {
			return true
		}
	}
	return false
}

// MarkdownReport renders the whole report: a section per experiment with
// both panels, ready to embed in docs.
func MarkdownReport(w io.Writer, rep *Report, titles map[string]string) {
	fmt.Fprintf(w, "## Reproduction results (scale=%s, GOMAXPROCS=%d)\n\n", rep.Scale, rep.GOMAXPROCS)
	fmt.Fprintf(w, "Simulated machine: %s. Shape, not absolute throughput, is the\nreproduction target — see docs/experiments.md.\n\n", rep.Machine)
	for _, id := range rep.Experiments() {
		recs := rep.ByExperiment(id)
		title := titles[id]
		if title == "" {
			title = id
		}
		fmt.Fprintf(w, "### %s\n\n", title)
		MarkdownThroughput(w, id, recs)
		fmt.Fprintln(w)
		MarkdownAborts(w, id, recs)
		fmt.Fprintln(w)
		if hasLatency(recs) {
			MarkdownLatency(w, id, recs)
			fmt.Fprintln(w)
		}
		if hasTelemetry(recs) {
			MarkdownTelemetry(w, id, recs)
			fmt.Fprintln(w)
		}
		if hasController(recs) {
			MarkdownController(w, id, recs)
			fmt.Fprintln(w)
		}
	}
}
