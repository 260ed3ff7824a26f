package telemetry_test

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sihtm/internal/race"
	"sihtm/internal/telemetry"
)

// The counter/gauge text format is an exact contract: golden output,
// deterministic ordering (families by name, series by label signature
// regardless of registration order).
func TestWritePrometheusGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Register out of order to prove the renderer sorts.
	var g atomic.Int64
	reg.MustGaugeFunc("zz_gauge", "A gauge.", func() float64 { return float64(g.Load()) })
	g.Store(-3)
	var a, b atomic.Uint64
	reg.MustCounterFunc("aa_requests_total", "Requests by kind.", b.Load, telemetry.L("kind", "write"))
	reg.MustCounterFunc("aa_requests_total", "", a.Load, telemetry.L("kind", "read"))
	a.Add(42)
	b.Add(7)
	reg.MustGaugeFunc("mm_ratio", "A computed gauge.", func() float64 { return 0.25 })

	want := strings.Join([]string{
		`# HELP aa_requests_total Requests by kind.`,
		`# TYPE aa_requests_total counter`,
		`aa_requests_total{kind="read"} 42`,
		`aa_requests_total{kind="write"} 7`,
		`# HELP mm_ratio A computed gauge.`,
		`# TYPE mm_ratio gauge`,
		`mm_ratio 0.25`,
		`# HELP zz_gauge A gauge.`,
		`# TYPE zz_gauge gauge`,
		`zz_gauge -3`,
		``,
	}, "\n")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("golden mismatch:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// Histogram rendering: cumulative non-decreasing buckets with ascending
// le bounds ending in +Inf, correct _count/_sum, and deterministic
// output scrape over scrape.
func TestWritePrometheusHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.MustHistogram("lat_seconds", "Latency.")
	for _, d := range []time.Duration{3, 1000, 1000, 250000, time.Second} {
		h.Observe(d)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	var les []float64
	var cums []uint64
	var gotCount uint64
	var gotSum float64
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "lat_seconds_bucket{le=\"+Inf\"}"):
			v, _ := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			cums = append(cums, v)
			les = append(les, 1e308)
		case strings.HasPrefix(line, "lat_seconds_bucket{le=\""):
			rest := strings.TrimPrefix(line, "lat_seconds_bucket{le=\"")
			i := strings.Index(rest, "\"}")
			le, err := strconv.ParseFloat(rest[:i], 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			v, _ := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			les = append(les, le)
			cums = append(cums, v)
		case strings.HasPrefix(line, "lat_seconds_count"):
			gotCount, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		case strings.HasPrefix(line, "lat_seconds_sum"):
			gotSum, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		}
	}
	if len(les) < 10 {
		t.Fatalf("only %d buckets rendered:\n%s", len(les), out)
	}
	if !sort.Float64sAreSorted(les) {
		t.Fatalf("le bounds not ascending: %v", les)
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Fatalf("cumulative counts decreased at %d: %v", i, cums)
		}
	}
	if gotCount != 5 || cums[len(cums)-1] != 5 {
		t.Fatalf("count = %d, +Inf bucket = %d, want 5", gotCount, cums[len(cums)-1])
	}
	wantSum := float64(3+1000+1000+250000) / 1e9 // + 1s
	wantSum += 1.0
	if gotSum < wantSum*0.999 || gotSum > wantSum*1.001 {
		t.Fatalf("sum = %g, want ~%g", gotSum, wantSum)
	}

	var sb2 strings.Builder
	if err := reg.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("output not deterministic across scrapes")
	}
}

// A scraper racing the writers of every instrument shape must render
// well-formed output and lose no counts (run under -race in CI).
func TestConcurrentIncrements(t *testing.T) {
	reg := telemetry.NewRegistry()
	var c atomic.Uint64
	reg.MustCounterFunc("hits_total", "", c.Load)
	var g atomic.Int64
	reg.MustGaugeFunc("level", "", func() float64 { return float64(g.Load()) })
	h := reg.MustHistogram("obs_seconds", "")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.WritePrometheus(io.Discard)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.Add(1)
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("hits_total %d\n", workers*per),
		fmt.Sprintf("level %d\n", workers*per),
		fmt.Sprintf("obs_seconds_count %d\n", workers*per),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// Label cardinality is bounded per family; exceeding the limit is a
// registration error, not a silent series explosion.
func TestSeriesLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	zero := func() uint64 { return 0 }
	for i := 0; i < telemetry.DefaultSeriesLimit; i++ {
		if err := reg.CounterFunc("bounded_total", "", zero, telemetry.L("k", fmt.Sprint(i))); err != nil {
			t.Fatalf("series %d rejected early: %v", i, err)
		}
	}
	if err := reg.CounterFunc("bounded_total", "", zero, telemetry.L("k", "overflow")); err == nil {
		t.Fatalf("series accepted past limit %d", telemetry.DefaultSeriesLimit)
	} else if !strings.Contains(err.Error(), "series limit") {
		t.Fatalf("unhelpful limit error: %v", err)
	}
}

func TestRegistrationErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	zero := func() uint64 { return 0 }
	if err := reg.CounterFunc("bad name", "", zero); err == nil {
		t.Fatal("invalid metric name accepted")
	}
	if err := reg.CounterFunc("x_total", "", zero, telemetry.L("0bad", "v")); err == nil {
		t.Fatal("invalid label key accepted")
	}
	if err := reg.CounterFunc("dup_total", "", zero, telemetry.L("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := reg.CounterFunc("dup_total", "", zero, telemetry.L("a", "1")); err == nil {
		t.Fatal("duplicate series accepted")
	}
	if err := reg.CounterFunc("x2_total", "", zero, telemetry.L("a", "1"), telemetry.L("a", "2")); err == nil {
		t.Fatal("duplicate label key in one series accepted")
	}
	if err := reg.GaugeFunc("dup_total", "", func() float64 { return 0 }); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

// Label values with quotes, backslashes and newlines must be escaped.
func TestLabelEscaping(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.MustCounterFunc("esc_total", "", func() uint64 { return 0 }, telemetry.L("v", "a\"b\\c\nd"))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 0`) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
}

// Instrument updates are the hot path: a registered histogram's Observe
// is atomic adds and zero allocations (counters and gauges are
// scrape-time functions, so their update is the subsystem's own).
func TestUpdateZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instruments allocations")
	}
	reg := telemetry.NewRegistry()
	h := reg.MustHistogram("h_seconds", "")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

// The HTTP endpoint set: /metrics scrapes, /healthz always, /readyz
// follows the callback, pprof answers.
func TestHTTPEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.MustCounterFunc("up_total", "", func() uint64 { return 3 })
	ready := true
	var mu sync.Mutex
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg, func() error {
		mu.Lock()
		defer mu.Unlock()
		if !ready {
			return fmt.Errorf("draining")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	mu.Lock()
	ready = false
	mu.Unlock()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while not ready = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}
