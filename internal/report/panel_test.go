package report

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/stats"
	"sihtm/internal/telemetry"
	"sihtm/internal/tsdb"
)

// scrapedStore builds the families the panel reads under a real tsdb and
// alert engine and scrapes twelve points 10ms apart: 50 commits and 25
// capacity aborts per interval (a 33% capacity share, so the cliff rule
// fires) and one 700µs service and 300µs ack observation each.
func scrapedStore(tb testing.TB) (*telemetry.Registry, *tsdb.Store, *alert.Engine) {
	tb.Helper()
	reg := telemetry.NewRegistry()
	sys := telemetry.L("system", "si-htm")
	var commits, caps atomic.Uint64
	zero := func() uint64 { return 0 }
	reg.MustCounterFunc("sihtm_tm_commits_total", "commits", commits.Load, telemetry.L("path", "update"), sys)
	reg.MustCounterFunc("sihtm_tm_commits_total", "commits", zero, telemetry.L("path", "read_only"), sys)
	for k := range stats.AbortKind(stats.NumAbortKinds) {
		count := zero
		if k == stats.AbortCapacity {
			count = caps.Load
		}
		reg.MustCounterFunc("sihtm_tm_aborts_total", "aborts", count, telemetry.L("cause", k.String()), sys)
	}
	svc := reg.MustHistogram("sihtm_server_service_seconds", "service")
	ack := reg.MustHistogram("sihtm_durable_ack_wait_seconds", "ack")
	store := tsdb.New(reg, tsdb.Config{Interval: 10 * time.Millisecond, Retention: 64})
	eng, err := alert.New(store, alert.DefaultRules(alert.RuleOptions{
		System: "si-htm", Interval: 10 * time.Millisecond,
	}), nil)
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Unix(3000, 0)
	for i := 0; i < 12; i++ {
		commits.Add(50)
		caps.Add(25)
		svc.Observe(700 * time.Microsecond)
		ack.Observe(300 * time.Microsecond)
		at = at.Add(10 * time.Millisecond)
		store.ScrapeAt(at)
	}
	return reg, store, eng
}

// TestPollAndRenderPanel runs a real tsdb + alert engine behind a real
// metrics listener and checks the live panel end to end.
func TestPollAndRenderPanel(t *testing.T) {
	reg, store, eng := scrapedStore(t)
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg, nil,
		telemetry.Extra{Path: "/debug/timeseries", Handler: tsdb.Handler(store)},
		telemetry.Extra{Path: "/debug/alerts", Handler: alert.Handler(eng)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nodes, err := ParseNodes([]string{"leader=http://" + srv.Addr() + "/"})
	if err != nil {
		t.Fatal(err)
	}
	f := Poll(nodes[0], 0)
	if f.Err != nil {
		t.Fatal(f.Err)
	}
	if len(f.TS.TimesNs) != 12 {
		t.Fatalf("polled points = %d want 12", len(f.TS.TimesNs))
	}
	var buf bytes.Buffer
	RenderPanel(&buf, []Frame{f}, 0)
	out := buf.String()
	for _, want := range []string{
		"== leader",
		"throughput  5000 tx/s",
		"capacity 33.3%",
		"ack 3",     // ~300µs bucketized
		"service 7", // ~700µs bucketized
		"FIRING: " + alert.RuleCapacityShare,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("panel missing %q:\n%s", want, out)
		}
	}

	// A dead node renders as unreachable, not a panic.
	dead := Poll(Node{Name: "ghost", Base: "http://127.0.0.1:1"}, 0)
	if dead.Err == nil {
		t.Fatal("poll of dead node succeeded")
	}
	buf.Reset()
	RenderPanel(&buf, []Frame{dead}, 0)
	if !strings.Contains(buf.String(), "UNREACHABLE") {
		t.Fatalf("dead panel:\n%s", buf.String())
	}
}

func TestParseNodes(t *testing.T) {
	nodes, err := ParseNodes([]string{"leader=http://a:1", "https://b:2/"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{{Name: "leader", Base: "http://a:1"}, {Name: "node-1", Base: "https://b:2"}}
	if len(nodes) != 2 || nodes[0] != want[0] || nodes[1] != want[1] {
		t.Fatalf("nodes = %+v want %+v", nodes, want)
	}
	for _, bad := range [][]string{nil, {"leader=ftp://a"}, {"a:1"}} {
		if _, err := ParseNodes(bad); err == nil {
			t.Fatalf("ParseNodes(%q) accepted", bad)
		}
	}
}

// FuzzReadDumps feeds adversarial /debug/timeseries and /debug/alerts
// bodies through the decoding Poll and Collect use, then the incident
// report and the live panel. Property: an error or output, never a
// panic.
func FuzzReadDumps(f *testing.F) {
	_, store, eng := scrapedStore(f)
	ts, err := json.Marshal(store.Dump(0, ""))
	if err != nil {
		f.Fatal(err)
	}
	al, err := json.Marshal(eng.Dump())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ts, al)
	f.Add(ts[:len(ts)/2], al[:len(al)/2])
	const counter = `{"name":"sihtm_tm_aborts_total","labels":{"cause":"capacity"},"kind":"counter","v":[1,2,3]}`
	const hist = `{"name":"sihtm_server_service_seconds","kind":"histogram","count":[1],"p99_us":[5,6,7,8]}`
	f.Add([]byte(`{"t_unix_ns":[1,2],"series":[`+counter+`,`+hist+`]}`), al)
	f.Add([]byte(`{"t_unix_ns":[1,2,3,4,5],"series":[`+counter+`,`+hist+`]}`), al)
	f.Add([]byte(`{"t_unix_ns":[30,10,20],"series":[`+counter+`]}`), al)
	minTS, _ := json.Marshal([]int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2})
	f.Add([]byte(`{"t_unix_ns":`+string(minTS)+`,"series":[`+counter+`]}`), al)
	f.Add(ts, []byte(`{"rules":[{"name":"capacity-abort-share","state":"firing"}],"events":[{"rule":"capacity-abort-share","to":"firing","at_ns":-9223372036854775808}]}`))
	f.Fuzz(func(t *testing.T, tsBody, alBody []byte) {
		n := NodeData{Node: Node{Name: "fuzz"}}
		if decodeJSON(&n.TS)(bytes.NewReader(tsBody)) != nil || decodeJSON(&n.Alerts)(bytes.NewReader(alBody)) != nil {
			return
		}
		in := Inputs{Nodes: []NodeData{n}}
		if err := Render(io.Discard, in, Analyze(in)); err != nil {
			t.Fatal(err)
		}
		for _, window := range []time.Duration{0, time.Second} {
			RenderPanel(io.Discard, []Frame{{NodeData: n}}, window)
		}
	})
}
