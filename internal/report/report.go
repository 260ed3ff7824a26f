// Package report is the post-run incident analyzer: it joins one or
// more nodes' time-series dumps (/debug/timeseries), alert transitions
// (/debug/alerts), and trace rings (/debug/traces) into an
// incident-style markdown report — SLO compliance, the alert timeline,
// the worst request traces inside each firing window, and abort-cause
// attribution. Analyze produces the joined facts as data (internal/node's
// capacity-alert test asserts on them directly); Render turns them into
// markdown; Build is both. Collect fetches a node's three surfaces over
// HTTP, the path `repro report` and that test share.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/trace"
	"sihtm/internal/tsdb"
)

// NodeData is one node's raw observability surfaces.
type NodeData struct {
	Name   string
	TS     tsdb.Dump
	Alerts alert.Dump
	Spans  []trace.Span
}

// Inputs is everything a report joins.
type Inputs struct {
	Title string
	Nodes []NodeData
}

// TimelineEvent is one alert transition placed on the run's time axis.
type TimelineEvent struct {
	Node     string
	Rule     string
	Severity string
	To       string // "firing" | "resolved"
	AtNs     int64
	// OffsetS is seconds since the node's first dumped point.
	OffsetS float64
	Value   float64
}

// Exemplar is one slow request trace attributed to a firing window.
type Exemplar struct {
	Node    string
	Rule    string
	Trace   uint64
	StartNs int64
	Dur     time.Duration
	// Stages breaks the request down by server stage, same trace id.
	Stages map[string]time.Duration
}

// AbortCause is one cause's share of attempts over a node's dump.
type AbortCause struct {
	Node  string
	Cause string
	Count float64
	Share float64 // of attempts (commits + aborts) over the dump
}

// SLOCompliance summarizes service p99 against an alert threshold.
type SLOCompliance struct {
	Node        string
	Rule        string
	ThresholdUs float64
	// Points is the number of dump intervals that saw traffic;
	// Compliant of them had interval p99 at or under the threshold.
	Points    int
	Compliant int
	WorstUs   float64
}

// Analysis is the joined, assertable result.
type Analysis struct {
	Timeline   []TimelineEvent
	Exemplars  []Exemplar
	Aborts     []AbortCause
	SLO        []SLOCompliance
	FiringNow  []string // rules still firing at dump time, "node/rule"
	SpanCounts map[string]int
}

// exemplarsPerWindow bounds the worst-trace list of one firing window.
const exemplarsPerWindow = 3

// Analyze joins the inputs.
func Analyze(in Inputs) Analysis {
	var a Analysis
	a.SpanCounts = make(map[string]int)
	for _, n := range in.Nodes {
		a.SpanCounts[n.Name] = len(n.Spans)
		var start int64
		if len(n.TS.TimesNs) > 0 {
			start = n.TS.TimesNs[0]
		}
		for _, ev := range n.Alerts.Events {
			a.Timeline = append(a.Timeline, TimelineEvent{
				Node:     n.Name,
				Rule:     ev.Rule,
				Severity: ev.Severity,
				To:       ev.To,
				AtNs:     ev.AtNs,
				OffsetS:  float64(ev.AtNs-start) / 1e9,
				Value:    ev.Value,
			})
		}
		for _, rs := range n.Alerts.Rules {
			if rs.State == "firing" {
				a.FiringNow = append(a.FiringNow, n.Name+"/"+rs.Name)
			}
		}
		a.Exemplars = append(a.Exemplars, exemplars(n)...)
		a.Aborts = append(a.Aborts, abortAttribution(n)...)
		a.SLO = append(a.SLO, sloCompliance(n)...)
	}
	sort.Slice(a.Timeline, func(i, j int) bool { return a.Timeline[i].AtNs < a.Timeline[j].AtNs })
	return a
}

// firingWindows pairs each firing event with its resolve (or the end of
// the dump when still firing).
func firingWindows(n NodeData) map[string][][2]int64 {
	end := int64(1<<63 - 1)
	if len(n.TS.TimesNs) > 0 {
		end = n.TS.TimesNs[len(n.TS.TimesNs)-1]
	}
	open := map[string]int64{}
	out := map[string][][2]int64{}
	evs := append([]alert.Event(nil), n.Alerts.Events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].AtNs < evs[j].AtNs })
	for _, ev := range evs {
		switch ev.To {
		case "firing":
			open[ev.Rule] = ev.AtNs
		case "resolved":
			if at, ok := open[ev.Rule]; ok {
				out[ev.Rule] = append(out[ev.Rule], [2]int64{at, ev.AtNs})
				delete(open, ev.Rule)
			}
		}
	}
	for rule, at := range open {
		out[rule] = append(out[rule], [2]int64{at, end})
	}
	return out
}

// exemplars picks the slowest server-side request spans inside each
// firing window.
func exemplars(n NodeData) []Exemplar {
	windows := firingWindows(n)
	if len(windows) == 0 {
		return nil
	}
	// Index stage durations by trace id once.
	stages := map[uint64]map[string]time.Duration{}
	for _, s := range n.Spans {
		if s.Trace == 0 || s.Kind == trace.KRequest || s.Kind == trace.KClient {
			continue
		}
		m := stages[s.Trace]
		if m == nil {
			m = map[string]time.Duration{}
			stages[s.Trace] = m
		}
		m[s.Kind.String()] += time.Duration(s.Dur)
	}
	var out []Exemplar
	for rule, ws := range windows {
		for _, w := range ws {
			var cand []Exemplar
			for _, s := range n.Spans {
				if s.Kind != trace.KRequest || s.Trace == 0 {
					continue
				}
				if s.Start < w[0] || s.Start > w[1] {
					continue
				}
				cand = append(cand, Exemplar{
					Node: n.Name, Rule: rule, Trace: s.Trace,
					StartNs: s.Start, Dur: time.Duration(s.Dur),
					Stages: stages[s.Trace],
				})
			}
			sort.Slice(cand, func(i, j int) bool { return cand[i].Dur > cand[j].Dur })
			if len(cand) > exemplarsPerWindow {
				cand = cand[:exemplarsPerWindow]
			}
			out = append(out, cand...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

// abortAttribution computes each cause's count and share of attempts
// over the whole dump.
func abortAttribution(n NodeData) []AbortCause {
	var attempts float64
	for _, ds := range n.TS.Find("sihtm_tm_commits_total") {
		if d, ok := n.TS.ScalarDelta(ds, 0); ok {
			attempts += d
		}
	}
	causes := n.TS.Find("sihtm_tm_aborts_total")
	var deltas []AbortCause
	for _, ds := range causes {
		d, ok := n.TS.ScalarDelta(ds, 0)
		if !ok {
			continue
		}
		attempts += d
		deltas = append(deltas, AbortCause{Node: n.Name, Cause: ds.Labels["cause"], Count: d})
	}
	for i := range deltas {
		if attempts > 0 {
			deltas[i].Share = deltas[i].Count / attempts
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Count > deltas[j].Count })
	return deltas
}

// sloCompliance measures the service-latency histogram against any
// latency alert rule's threshold.
func sloCompliance(n NodeData) []SLOCompliance {
	var thresholdUs float64
	rule := ""
	for _, rs := range n.Alerts.Rules {
		if rs.Name == alert.RuleP99SLO {
			thresholdUs = rs.Threshold * 1e6
			rule = rs.Name
		}
	}
	if rule == "" {
		return nil
	}
	var out []SLOCompliance
	for _, ds := range n.TS.Find("sihtm_server_service_seconds") {
		c := SLOCompliance{Node: n.Name, Rule: rule, ThresholdUs: thresholdUs}
		for _, p99 := range ds.P99Us {
			if p99 <= 0 {
				continue // idle interval
			}
			c.Points++
			if p99 <= thresholdUs {
				c.Compliant++
			}
			if p99 > c.WorstUs {
				c.WorstUs = p99
			}
		}
		out = append(out, c)
	}
	return out
}

// Render writes the analysis as incident-style markdown.
func Render(w io.Writer, in Inputs, a Analysis) error {
	title := in.Title
	if title == "" {
		title = "run"
	}
	fmt.Fprintf(w, "# Incident report: %s\n\n", title)
	for _, n := range in.Nodes {
		span := "no points"
		if len(n.TS.TimesNs) > 1 {
			span = time.Duration(n.TS.TimesNs[len(n.TS.TimesNs)-1] - n.TS.TimesNs[0]).Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "- node `%s`: %d points over %s (interval %.0fms, %d spans in ring, %d scrape overruns)\n",
			n.Name, len(n.TS.TimesNs), span, n.TS.IntervalMs, a.SpanCounts[n.Name], n.TS.ScrapeOverruns)
	}

	fmt.Fprintf(w, "\n## SLO compliance\n\n")
	if len(a.SLO) == 0 {
		fmt.Fprintf(w, "No latency SLO rule was active (server ran without `--p99-target`).\n")
	} else {
		fmt.Fprintf(w, "| node | rule | threshold | intervals with traffic | compliant | worst p99 |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
		for _, c := range a.SLO {
			pct := 100.0
			if c.Points > 0 {
				pct = 100 * float64(c.Compliant) / float64(c.Points)
			}
			fmt.Fprintf(w, "| %s | %s | %.0fµs | %d | %d (%.0f%%) | %.0fµs |\n",
				c.Node, c.Rule, c.ThresholdUs, c.Points, c.Compliant, pct, c.WorstUs)
		}
	}

	fmt.Fprintf(w, "\n## Alert timeline\n\n")
	if len(a.Timeline) == 0 {
		fmt.Fprintf(w, "No alert transitions — the run stayed healthy.\n")
	} else {
		fmt.Fprintf(w, "| t+ | node | rule | severity | transition | value |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
		for _, ev := range a.Timeline {
			fmt.Fprintf(w, "| %.2fs | %s | %s | %s | **%s** | %.4g |\n",
				ev.OffsetS, ev.Node, ev.Rule, ev.Severity, ev.To, ev.Value)
		}
		if len(a.FiringNow) > 0 {
			fmt.Fprintf(w, "\nStill firing at dump time: %s.\n", strings.Join(a.FiringNow, ", "))
		}
	}

	fmt.Fprintf(w, "\n## Worst traces per firing window\n\n")
	if len(a.Exemplars) == 0 {
		fmt.Fprintf(w, "No request traces fell inside a firing window.\n")
	} else {
		fmt.Fprintf(w, "| rule | node | trace | duration | stages |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|\n")
		for _, ex := range a.Exemplars {
			var stages []string
			for _, k := range []string{"admit", "exec", "ack", "flush"} {
				if d, ok := ex.Stages[k]; ok {
					stages = append(stages, fmt.Sprintf("%s %s", k, d.Round(time.Microsecond)))
				}
			}
			fmt.Fprintf(w, "| %s | %s | `%d` | %s | %s |\n",
				ex.Rule, ex.Node, ex.Trace, ex.Dur.Round(time.Microsecond), strings.Join(stages, ", "))
		}
		fmt.Fprintf(w, "\nReplay any of these with `repro trace --trace=ID NODE=URL`.\n")
	}

	fmt.Fprintf(w, "\n## Abort-cause attribution\n\n")
	if len(a.Aborts) == 0 {
		fmt.Fprintf(w, "No abort counters in the dump.\n")
	} else {
		fmt.Fprintf(w, "| node | cause | aborts | share of attempts |\n")
		fmt.Fprintf(w, "|---|---|---|---|\n")
		for _, ac := range a.Aborts {
			fmt.Fprintf(w, "| %s | %s | %.0f | %.2f%% |\n", ac.Node, ac.Cause, ac.Count, 100*ac.Share)
		}
	}
	return nil
}

// Build is Analyze + Render.
func Build(w io.Writer, in Inputs) error {
	return Render(w, in, Analyze(in))
}

// Collect fetches one node's three observability surfaces from the
// metrics listener base URL ("http://host:port").
func Collect(name, base string) (NodeData, error) {
	n := NodeData{Name: name}
	base = strings.TrimSuffix(base, "/")
	body, err := httpGet(base + "/debug/timeseries")
	if err != nil {
		return n, err
	}
	if err := json.Unmarshal(body, &n.TS); err != nil {
		return n, fmt.Errorf("report: %s/debug/timeseries: %w", base, err)
	}
	body, err = httpGet(base + "/debug/alerts")
	if err != nil {
		return n, err
	}
	if err := json.Unmarshal(body, &n.Alerts); err != nil {
		return n, fmt.Errorf("report: %s/debug/alerts: %w", base, err)
	}
	body, err = httpGet(base + "/debug/traces")
	if err != nil {
		return n, err
	}
	spans, _, err := trace.ReadJSONL(strings.NewReader(string(body)))
	if err != nil {
		return n, fmt.Errorf("report: %s/debug/traces: %w", base, err)
	}
	n.Spans = spans
	return n, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report: GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
