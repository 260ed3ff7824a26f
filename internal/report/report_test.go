package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/trace"
	"sihtm/internal/tsdb"
)

// fixtureNode builds a synthetic node: 5 points at 100ms spacing, a
// capacity-abort cliff firing between points 1 and 3, one slow request
// trace inside the firing window and one outside it.
func fixtureNode() NodeData {
	base := int64(1_000_000_000_000)
	step := int64(100 * time.Millisecond)
	times := []int64{base, base + step, base + 2*step, base + 3*step, base + 4*step}
	ts := tsdb.Dump{
		IntervalMs: 100,
		Retention:  64,
		TimesNs:    times,
		Series: []tsdb.DumpSeries{
			{Name: "sihtm_tm_commits_total", Labels: map[string]string{"path": "update", "system": "htm"},
				Kind: "counter", Values: []float64{0, 100, 200, 300, 400}},
			{Name: "sihtm_tm_aborts_total", Labels: map[string]string{"cause": "capacity", "system": "htm"},
				Kind: "counter", Values: []float64{0, 40, 80, 90, 90}},
			{Name: "sihtm_tm_aborts_total", Labels: map[string]string{"cause": "conflict", "system": "htm"},
				Kind: "counter", Values: []float64{0, 5, 10, 10, 10}},
			{Name: "sihtm_server_service_seconds", Kind: "histogram",
				Counts: []uint64{0, 100, 200, 300, 400},
				P50Us:  []float64{0, 300, 350, 200, 150},
				P99Us:  []float64{0, 900, 1200, 400, 300}},
		},
	}
	al := alert.Dump{
		Rules: []alert.RuleStatus{
			{Name: alert.RuleCapacityShare, Kind: "burn-rate", Severity: "page",
				State: "inactive", Op: ">", Threshold: 0.02},
			{Name: alert.RuleP99SLO, Kind: "burn-rate", Severity: "page",
				State: "inactive", Op: ">", Threshold: 0.0005}, // 500µs
		},
		Events: []alert.Event{
			{Rule: alert.RuleCapacityShare, Severity: "page", To: "firing", AtNs: times[1], Value: 0.28},
			{Rule: alert.RuleCapacityShare, Severity: "page", To: "resolved", AtNs: times[3], Value: 0.0},
		},
	}
	spans := []trace.Span{
		// Inside the firing window.
		{Trace: 42, Kind: trace.KRequest, Start: times[2], Dur: int64(2 * time.Millisecond)},
		{Trace: 42, Kind: trace.KAdmit, Start: times[2], Dur: int64(1500 * time.Microsecond)},
		{Trace: 42, Kind: trace.KExec, Start: times[2], Dur: int64(400 * time.Microsecond)},
		// Outside every firing window.
		{Trace: 77, Kind: trace.KRequest, Start: times[4], Dur: int64(5 * time.Millisecond)},
	}
	return NodeData{Node: Node{Name: "leader"}, TS: ts, Alerts: al, Spans: spans}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(Inputs{Title: "t", Nodes: []NodeData{fixtureNode()}})
	if len(a.Timeline) != 2 || a.Timeline[0].To != "firing" || a.Timeline[1].To != "resolved" {
		t.Fatalf("timeline = %+v", a.Timeline)
	}
	if a.Timeline[0].OffsetS != 0.1 {
		t.Fatalf("firing offset = %v want 0.1s", a.Timeline[0].OffsetS)
	}
	if len(a.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v, want exactly the in-window trace", a.Exemplars)
	}
	ex := a.Exemplars[0]
	if ex.Trace != 42 || ex.Rule != alert.RuleCapacityShare {
		t.Fatalf("exemplar = %+v", ex)
	}
	if ex.Stages["admit"] != 1500*time.Microsecond {
		t.Fatalf("exemplar stages = %+v", ex.Stages)
	}
	// Aborts: capacity 90 of (400 commits + 90 + 10) attempts = 18%.
	if len(a.Aborts) != 2 || a.Aborts[0].Cause != "capacity" {
		t.Fatalf("aborts = %+v", a.Aborts)
	}
	if got := a.Aborts[0].Share; got < 0.179 || got > 0.181 {
		t.Fatalf("capacity share = %v want 0.18", got)
	}
	// SLO: threshold 500µs; traffic intervals p99 = 900,1200,400,300 →
	// 2 of 4 compliant, worst 1200.
	if len(a.SLO) != 1 {
		t.Fatalf("slo = %+v", a.SLO)
	}
	slo := a.SLO[0]
	if slo.Points != 4 || slo.Compliant != 2 || slo.WorstUs != 1200 {
		t.Fatalf("slo = %+v", slo)
	}
	if len(a.FiringNow) != 0 {
		t.Fatalf("firing now = %v", a.FiringNow)
	}
}

func TestRender(t *testing.T) {
	in := Inputs{Title: "net-slo smoke", Nodes: []NodeData{fixtureNode()}}
	var buf bytes.Buffer
	if err := Build(&buf, in); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{
		"# Incident report: net-slo smoke",
		"## Alert timeline",
		alert.RuleCapacityShare,
		"**firing**",
		"**resolved**",
		"## Worst traces per firing window",
		"`42`",
		"admit 1.5ms",
		"## Abort-cause attribution",
		"| leader | capacity | 90 | 18.00% |",
		"## SLO compliance",
		"2 (50%)",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
	// A healthy run renders the empty-state prose, not empty tables.
	healthy := fixtureNode()
	healthy.Alerts.Events = nil
	var hb bytes.Buffer
	if err := Build(&hb, Inputs{Nodes: []NodeData{healthy}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hb.String(), "No alert transitions") ||
		!strings.Contains(hb.String(), "No request traces fell inside a firing window") {
		t.Fatalf("healthy report:\n%s", hb.String())
	}
}
