package node

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/alert"
	"sihtm/internal/telemetry"
	"sihtm/internal/tsdb"
)

// TestReadyFollowsStallRule drives /readyz through a real tsdb and alert
// engine scraped at synthetic times, over the two gauges a follower
// registers. A healthy stream trailing its leader by one record is
// ready however often it is probed between scrapes; a watermark that
// stays flat behind the leader turns /readyz into a 503 exactly when
// the follower-watermark-stall rule fires; draining is a 503 whatever
// the rule says.
func TestReadyFollowsStallRule(t *testing.T) {
	const step = 10 * time.Millisecond
	var wm, lag atomic.Int64
	reg := telemetry.NewRegistry()
	reg.MustGaugeFunc("sihtm_repl_watermark", "", func() float64 { return float64(wm.Load()) })
	reg.MustGaugeFunc("sihtm_repl_lag", "", func() float64 { return float64(lag.Load()) })
	store := tsdb.New(reg, tsdb.Config{Interval: step, Retention: 64})
	var rules []alert.Rule
	for _, r := range alert.DefaultRules(alert.RuleOptions{System: "si-htm", Interval: step, Follower: true}) {
		if r.Name == alert.RuleWatermarkStall {
			rules = append(rules, r)
		}
	}
	eng, err := alert.New(store, rules, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var draining atomic.Bool
	srv := httptest.NewServer(telemetry.NewHandler(reg, readyProbe(draining.Load, eng)))
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	at := time.Unix(4000, 0)
	scrape := func() { at = at.Add(step); store.ScrapeAt(at) }

	// Healthy at a steady lag of 1: every record applies, the leader is
	// always one ahead, and back-to-back probes between two scrapes see
	// the same watermark behind the leader. Ready throughout.
	lag.Store(1)
	for i := 0; i < 20; i++ {
		wm.Add(1)
		scrape()
		for probe := 0; probe < 2; probe++ {
			if code, body := get(); code != http.StatusOK {
				t.Fatalf("scrape %d probe %d at lag 1: status %d (%s), want 200", i, probe, code, body)
			}
		}
	}

	// Stalled: the watermark stops while the lag holds. Ready until the
	// rule fires, then 503 naming the rule.
	fired := false
	for i := 0; i < 20 && !fired; i++ {
		scrape()
		st, _ := eng.State(alert.RuleWatermarkStall)
		fired = st == alert.StateFiring
		code, body := get()
		switch {
		case fired && (code != http.StatusServiceUnavailable || !strings.Contains(body, alert.RuleWatermarkStall)):
			t.Fatalf("stall rule firing: status %d (%s), want 503 naming the rule", code, body)
		case !fired && code != http.StatusOK:
			t.Fatalf("stall rule %s: status %d (%s), want 200", st, code, body)
		}
	}
	if !fired {
		t.Fatal("a flat watermark behind the leader never fired the stall rule")
	}

	// Progress resumes: the rule resolves and the follower is ready.
	for i := 0; i < 4; i++ {
		wm.Add(1)
		scrape()
	}
	if code, body := get(); code != http.StatusOK {
		t.Fatalf("resumed follower: status %d (%s), want 200", code, body)
	}

	draining.Store(true)
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining: status %d body %q", code, body)
	}
}
