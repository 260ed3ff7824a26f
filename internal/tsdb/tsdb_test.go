package tsdb

import (
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/race"
	"sihtm/internal/telemetry"
)

// fixture builds a registry with one of every instrument shape and a
// small store over it. Scrapes are driven manually with synthetic
// timestamps so window math is exact.
func fixture(t *testing.T, retention int) (*telemetry.Registry, *Store, *atomic.Uint64, *atomic.Int64, func(d time.Duration)) {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := new(atomic.Uint64)
	reg.MustCounterFunc("t_ops_total", "ops", c.Load, telemetry.L("kind", "w"))
	g := new(atomic.Int64)
	reg.MustGaugeFunc("t_depth", "queue depth", func() float64 { return float64(g.Load()) })
	h := reg.MustHistogram("t_lat_seconds", "latency")
	var fnv uint64
	reg.MustCounterFunc("t_fn_total", "fn counter", func() uint64 { return fnv })
	reg.MustGaugeFunc("t_fn_gauge", "fn gauge", func() float64 { return 7.5 })
	s := New(reg, Config{Interval: 10 * time.Millisecond, Retention: retention})
	base := time.Unix(1000, 0)
	step := func(d time.Duration) {
		fnv++
		h.Observe(d)
		base = base.Add(s.Interval())
		s.ScrapeAt(base)
	}
	return reg, s, c, g, step
}

func TestWindowMath(t *testing.T) {
	_, s, c, g, step := fixture(t, 32)
	// 10 scrapes, 10ms apart; counter +5 per interval, gauge = i,
	// histogram observes 1ms then 2ms alternating.
	for i := 0; i < 10; i++ {
		c.Add(5)
		g.Store(int64(i))
		d := time.Millisecond
		if i%2 == 1 {
			d = 2 * time.Millisecond
		}
		step(d)
	}
	if s.count != 10 {
		t.Fatalf("count = %d, want 10", s.count)
	}
	cref, ok := s.Lookup("t_ops_total", telemetry.L("kind", "w"))
	if !ok {
		t.Fatal("Lookup t_ops_total failed")
	}
	if v, ok := s.LatestScalar(cref); !ok || v != 50 {
		t.Fatalf("LatestScalar = %v,%v want 50,true", v, ok)
	}
	// Trailing 50ms window spans 6 points (5 intervals): delta = 25.
	if d, ok := s.Delta(cref, 50*time.Millisecond); !ok || d != 25 {
		t.Fatalf("Delta(50ms) = %v,%v want 25,true", d, ok)
	}
	if r, ok := s.Rate(cref, 50*time.Millisecond); !ok || r != 500 {
		t.Fatalf("Rate(50ms) = %v,%v want 500,true", r, ok)
	}
	// Full-ring delta: 9 intervals visible between first and last point.
	if d, ok := s.Delta(cref, 0); !ok || d != 45 {
		t.Fatalf("Delta(all) = %v,%v want 45,true", d, ok)
	}
	gref, _ := s.Lookup("t_depth")
	if v, _ := s.LatestScalar(gref); v != 9 {
		t.Fatalf("gauge latest = %v want 9", v)
	}
	fref, _ := s.Lookup("t_fn_gauge")
	if v, _ := s.LatestScalar(fref); v != 7.5 {
		t.Fatalf("fn gauge latest = %v want 7.5", v)
	}
	href, ok := s.Lookup("t_lat_seconds")
	if !ok {
		t.Fatal("Lookup t_lat_seconds failed")
	}
	delta, dt, ok := s.HistWindow(href, 50*time.Millisecond)
	if !ok || dt != 50*time.Millisecond {
		t.Fatalf("HistWindow dt = %v,%v want 50ms,true", dt, ok)
	}
	if delta.Count() != 5 {
		t.Fatalf("HistWindow count = %d want 5", delta.Count())
	}
	if q, ok := delta.QuantileOK(0.99); !ok || q < time.Millisecond {
		t.Fatalf("HistWindow p99 = %v,%v", q, ok)
	}
	// Too few points in a tiny window.
	if _, ok := s.Delta(cref, time.Millisecond); ok {
		t.Fatal("Delta with one point should not be ok")
	}
	// Unknown series.
	if _, ok := s.Lookup("t_missing"); ok {
		t.Fatal("Lookup of unregistered series succeeded")
	}
}

func TestRingWrap(t *testing.T) {
	_, s, c, _, step := fixture(t, 4)
	for i := 0; i < 10; i++ {
		c.Add(1)
		step(time.Millisecond)
	}
	if s.count != 4 {
		t.Fatalf("count = %d, want retention 4", s.count)
	}
	cref, _ := s.Lookup("t_ops_total", telemetry.L("kind", "w"))
	// Ring holds scrapes 7..10: counter values 7,8,9,10.
	if d, ok := s.Delta(cref, 0); !ok || d != 3 {
		t.Fatalf("Delta over wrapped ring = %v,%v want 3,true", d, ok)
	}
}

func TestDumpAndHandler(t *testing.T) {
	_, s, c, g, step := fixture(t, 16)
	for i := 0; i < 6; i++ {
		c.Add(10)
		g.Store(int64(i * 2))
		step(3 * time.Millisecond)
	}
	d := s.Dump(0, "")
	if len(d.TimesNs) != 6 {
		t.Fatalf("dump points = %d want 6", len(d.TimesNs))
	}
	cs := d.Find("t_ops_total")
	if len(cs) != 1 || cs[0].Labels["kind"] != "w" {
		t.Fatalf("Find t_ops_total = %+v", cs)
	}
	if got := cs[0].Last(); got != 60 {
		t.Fatalf("counter last = %v want 60", got)
	}
	if delta, ok := d.ScalarDelta(cs[0], 0); !ok || delta != 50 {
		t.Fatalf("dump delta = %v,%v want 50,true", delta, ok)
	}
	if rate, ok := d.ScalarRate(cs[0], 0); !ok || rate != 1000 {
		t.Fatalf("dump rate = %v,%v want 1000,true", rate, ok)
	}
	hs := d.Find("t_lat_seconds")
	if len(hs) != 1 || hs[0].Kind != "histogram" {
		t.Fatalf("Find t_lat_seconds = %+v", hs)
	}
	if hs[0].Counts[5] != 6 {
		t.Fatalf("cumulative count = %d want 6", hs[0].Counts[5])
	}
	if hs[0].LastP99Us() <= 0 {
		t.Fatal("LastP99Us = 0, want a positive interval p99")
	}
	// Prefix filter drops the t_* series.
	if got := s.Dump(0, "sihtm_"); len(got.Series) >= len(d.Series) {
		t.Fatalf("prefix filter kept %d of %d series", len(got.Series), len(d.Series))
	}

	// HTTP round-trip: the handler's JSON parses back into the same shape.
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?window=35ms&prefix=t_ops")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rt Dump
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	if len(rt.TimesNs) != 4 {
		t.Fatalf("windowed points = %d want 4 (35ms window at 10ms spacing)", len(rt.TimesNs))
	}
	if len(rt.Series) != 1 || rt.Series[0].Name != "t_ops_total" {
		t.Fatalf("prefixed series = %+v", rt.Series)
	}
	// Bad window is a 400.
	resp2, err := srv.Client().Get(srv.URL + "?window=nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("bad window status = %d want 400", resp2.StatusCode)
	}
}

// TestScrapeZeroAllocs pins the tentpole property: after warm-up, a
// scrape of a realistic registry performs zero allocations. The name
// matches CI's alloc-pin filter (-run 'Alloc|ReuseBuffers').
func TestScrapeZeroAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	var c atomic.Uint64
	reg.MustCounterFunc("t_ops_total", "ops", c.Load)
	var g atomic.Int64
	reg.MustGaugeFunc("t_depth", "depth", func() float64 { return float64(g.Load()) })
	h := reg.MustHistogram("t_lat_seconds", "latency")
	var fnv uint64
	reg.MustCounterFunc("t_fn_total", "fn", func() uint64 { return fnv })
	reg.MustGaugeFunc("t_fn_gauge", "fn", func() float64 { return 1 })
	s := New(reg, Config{Interval: time.Second, Retention: 64})
	op := func() {
		c.Add(1)
		g.Store(3)
		fnv++
		h.Observe(time.Millisecond)
		s.Scrape()
	}
	for i := 0; i < 512; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(500, op)
	if race.Enabled {
		t.Skipf("race detector instrumentation allocates (measured %.1f allocs/op); numeric pin gated off", allocs)
	}
	if allocs != 0 {
		t.Fatalf("steady-state scrape allocates %.1f times per op, want 0", allocs)
	}
}
