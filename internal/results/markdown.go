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
// system, each cell rendered by cell (a dash where there is no record).
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
			text := "–"
			if r, ok := find(recs, s, label, byParam); ok {
				text = cell(r)
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
	}
}
