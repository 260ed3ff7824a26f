package alert

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/telemetry"
	"sihtm/internal/tsdb"
)

const step = 10 * time.Millisecond

// harness drives a store with synthetic timestamps so for-durations and
// windows are exact.
type harness struct {
	reg   *telemetry.Registry
	store *tsdb.Store
	at    time.Time
}

func newHarness(t *testing.T, build func(reg *telemetry.Registry)) *harness {
	t.Helper()
	reg := telemetry.NewRegistry()
	build(reg)
	return &harness{
		reg:   reg,
		store: tsdb.New(reg, tsdb.Config{Interval: step, Retention: 64}),
		at:    time.Unix(2000, 0),
	}
}

// tick scrapes once; the engine's OnScrape hook evaluates.
func (h *harness) tick() { h.at = h.at.Add(step); h.store.ScrapeAt(h.at) }

// gauge registers a settable gauge: a scrape-time function over a
// local atomic.
func gauge(reg *telemetry.Registry, name, help string) *atomic.Int64 {
	v := new(atomic.Int64)
	reg.MustGaugeFunc(name, help, func() float64 { return float64(v.Load()) })
	return v
}

func TestThresholdHysteresis(t *testing.T) {
	var g *atomic.Int64
	h := newHarness(t, func(reg *telemetry.Registry) {
		g = gauge(reg, "t_depth", "depth")
	})
	var logBuf bytes.Buffer
	eng, err := New(h.store, []Rule{{
		Name: "deep-queue", Severity: "warn", Kind: KindThreshold,
		Signal:    Signal{Series: []Series{{Name: "t_depth"}}, Reduce: ReduceValue},
		Op:        OpGreater,
		Threshold: 100,
		For:       2 * step,
	}}, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	mustState := func(want State) {
		t.Helper()
		if st, ok := eng.State("deep-queue"); !ok || st != want {
			t.Fatalf("state = %v,%v want %v", st, ok, want)
		}
	}
	h.tick()
	mustState(StateInactive)
	g.Store(500)
	h.tick() // breach #1 → pending
	mustState(StatePending)
	h.tick() // breach held 1 step < For
	mustState(StatePending)
	h.tick() // held 2 steps >= For → firing
	mustState(StateFiring)
	g.Store(10)
	h.tick()
	mustState(StateInactive)

	d := eng.Dump()
	if len(d.Events) != 2 || d.Events[0].To != "firing" || d.Events[1].To != "resolved" {
		t.Fatalf("events = %+v", d.Events)
	}
	if d.Events[0].Value != 500 {
		t.Fatalf("firing value = %v want 500", d.Events[0].Value)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "rule=deep-queue") || !strings.Contains(logs, "state=firing") ||
		!strings.Contains(logs, "state=resolved") {
		t.Fatalf("log lines missing transitions:\n%s", logs)
	}
	// A bounce that clears before For never fires.
	g.Store(500)
	h.tick()
	mustState(StatePending)
	g.Store(0)
	h.tick()
	mustState(StateInactive)
	if got := eng.Dump(); len(got.Events) != 2 {
		t.Fatalf("bounce produced events: %+v", got.Events)
	}
}

func TestBurnRateShare(t *testing.T) {
	var capc, okc atomic.Uint64
	h := newHarness(t, func(reg *telemetry.Registry) {
		reg.MustCounterFunc("t_bad_total", "capacity aborts", capc.Load)
		reg.MustCounterFunc("t_ok_total", "commits", okc.Load)
	})
	eng, err := New(h.store, []Rule{{
		Name: "bad-share", Severity: "page", Kind: KindBurnRate,
		Signal: Signal{
			Series: []Series{{Name: "t_bad_total"}},
			Reduce: ReduceRate,
			Den:    []Series{{Name: "t_bad_total"}, {Name: "t_ok_total"}},
		},
		Op:         OpGreater,
		Threshold:  0.02,
		FastWindow: 4 * step,
		SlowWindow: 16 * step,
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy traffic: 100 commits, 1 capacity abort per interval (1%).
	for i := 0; i < 20; i++ {
		okc.Add(100)
		capc.Add(1)
		h.tick()
	}
	if st, _ := eng.State("bad-share"); st != StateInactive {
		t.Fatalf("healthy share fired: %v", st)
	}
	// Cliff: 10% capacity share. The fast window (4 steps) breaches
	// almost immediately; firing waits for the slow window (16 steps)
	// to cross too — the slow burn confirmation.
	fired := -1
	for i := 0; i < 30; i++ {
		okc.Add(90)
		capc.Add(10)
		h.tick()
		if st, _ := eng.State("bad-share"); st == StateFiring {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("capacity cliff never fired")
	}
	// Recovery: clean traffic resolves on the fast window alone, well
	// before the slow window forgets the cliff.
	resolved := -1
	for i := 0; i < 10; i++ {
		okc.Add(100)
		h.tick()
		if st, _ := eng.State("bad-share"); st == StateInactive {
			resolved = i
			break
		}
	}
	if resolved < 0 {
		t.Fatal("did not resolve on fast-window recovery")
	}
	// Dead denominator with zero numerator is healthy, not NaN.
	for i := 0; i < 20; i++ {
		h.tick()
	}
	if st, _ := eng.State("bad-share"); st != StateInactive {
		t.Fatalf("idle traffic state = %v", st)
	}
}

func TestGatedStallRule(t *testing.T) {
	var wm, lag *atomic.Int64
	h := newHarness(t, func(reg *telemetry.Registry) {
		wm = gauge(reg, "t_watermark", "applied seq")
		lag = gauge(reg, "t_lag", "records behind")
	})
	eng, err := New(h.store, []Rule{{
		Name: "stall", Severity: "page", Kind: KindThreshold,
		Signal:    Signal{Series: []Series{{Name: "t_watermark"}}, Reduce: ReduceDelta},
		Op:        OpLess,
		Threshold: 1,
		Window:    4 * step,
		Gate: &Condition{
			Signal:    Signal{Series: []Series{{Name: "t_lag"}}, Reduce: ReduceValue},
			Op:        OpGreater,
			Threshold: 0,
		},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Caught up and idle: watermark flat, lag 0 → gate closed, healthy.
	for i := 0; i < 10; i++ {
		h.tick()
	}
	if st, _ := eng.State("stall"); st != StateInactive {
		t.Fatalf("caught-up follower alerted: %v", st)
	}
	// Behind and stuck: lag > 0, watermark flat → fires.
	lag.Store(50)
	for i := 0; i < 6; i++ {
		h.tick()
	}
	if st, _ := eng.State("stall"); st != StateFiring {
		t.Fatalf("stalled follower state = %v want firing", st)
	}
	// Progress resumes: watermark advances every interval → resolves.
	for i := 0; i < 8; i++ {
		wm.Add(100)
		h.tick()
	}
	if st, _ := eng.State("stall"); st != StateInactive {
		t.Fatalf("advancing follower state = %v want inactive", st)
	}
}

func TestNewRejectsUnknownSeries(t *testing.T) {
	h := newHarness(t, func(reg *telemetry.Registry) {})
	_, err := New(h.store, []Rule{{
		Name:   "ghost",
		Signal: Signal{Series: []Series{{Name: "t_never_registered"}}},
	}}, nil)
	if err == nil || !strings.Contains(err.Error(), "t_never_registered") {
		t.Fatalf("err = %v, want unknown-series error", err)
	}
}

func TestHandlerAndMetrics(t *testing.T) {
	var g *atomic.Int64
	h := newHarness(t, func(reg *telemetry.Registry) {
		g = gauge(reg, "t_depth", "depth")
	})
	eng, err := New(h.store, []Rule{{
		Name: "deep-queue", Severity: "warn", Kind: KindThreshold,
		Signal:    Signal{Series: []Series{{Name: "t_depth"}}, Reduce: ReduceValue},
		Op:        OpGreater,
		Threshold: 100,
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(200)
	h.tick()
	srv := httptest.NewServer(Handler(eng))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Rules) != 1 || d.Rules[0].State != "firing" || d.Rules[0].Threshold != 100 {
		t.Fatalf("dump rules = %+v", d.Rules)
	}
	if len(d.Events) != 1 || d.Events[0].To != "firing" {
		t.Fatalf("dump events = %+v", d.Events)
	}
}

func TestDefaultRulesRoles(t *testing.T) {
	names := func(rules []Rule) []string {
		var out []string
		for _, r := range rules {
			out = append(out, r.Name)
		}
		return out
	}
	base := DefaultRules(RuleOptions{System: "si-htm", Interval: step})
	if got := names(base); len(got) != 1 || got[0] != RuleCapacityShare {
		t.Fatalf("volatile rules = %v", got)
	}
	all := DefaultRules(RuleOptions{
		System: "si-htm", Interval: step,
		P99Target: time.Millisecond, Durable: true, Follower: true, Leader: true,
	})
	want := []string{RuleCapacityShare, RuleP99SLO, RuleFsyncP99, RuleWatermarkStall, RuleDroppedSubs}
	got := names(all)
	if len(got) != len(want) {
		t.Fatalf("full rules = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full rules = %v want %v", got, want)
		}
	}
}
