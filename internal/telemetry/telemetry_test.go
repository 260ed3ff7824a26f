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
	b := reg.MustCounter("aa_requests_total", "Requests by kind.", telemetry.L("kind", "write"))
	a := reg.MustCounter("aa_requests_total", "", telemetry.L("kind", "read"))
	a.Add(41)
	a.Inc()
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
	h := reg.MustHistogram("lat_seconds", "Latency.", telemetry.UnitSeconds)
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

// UnitCount histograms render bucket bounds verbatim, not divided by 1e9.
func TestHistogramUnitCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.MustHistogram("batch_ops", "Batch sizes.", telemetry.UnitCount)
	h.Observe(time.Duration(16))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	// 16 lands in bucket [16,20), rendered at the le=32 octave edge; the
	// le=16 bucket (exclusive upper bound) must not contain it.
	if !strings.Contains(sb.String(), `batch_ops_bucket{le="16"} 0`) ||
		!strings.Contains(sb.String(), `batch_ops_bucket{le="32"} 1`) {
		t.Fatalf("16-op observation misplaced:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "batch_ops_sum 16\n") {
		t.Fatalf("sum not rendered verbatim:\n%s", sb.String())
	}
}

// Concurrent increments across goroutines must not lose counts (run
// under -race in CI).
func TestConcurrentIncrements(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.MustCounter("hits_total", "")
	var g atomic.Int64
	reg.MustGaugeFunc("level", "", func() float64 { return float64(g.Load()) })
	h := reg.MustHistogram("obs_seconds", "", telemetry.UnitSeconds)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A scraper races the writers: output must stay well-formed.
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
				c.Inc()
				g.Add(1)
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Load() != workers*per {
		t.Fatalf("gauge = %d, want %d", g.Load(), workers*per)
	}
	if n := h.Snapshot().Count(); n != workers*per {
		t.Fatalf("histogram count = %d, want %d", n, workers*per)
	}
}

// Label cardinality is bounded per family; exceeding the limit is a
// registration error, not a silent series explosion.
func TestSeriesLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetSeriesLimit(4)
	for i := 0; i < 4; i++ {
		if _, err := reg.Counter("bounded_total", "", telemetry.L("k", fmt.Sprint(i))); err != nil {
			t.Fatalf("series %d rejected early: %v", i, err)
		}
	}
	if _, err := reg.Counter("bounded_total", "", telemetry.L("k", "overflow")); err == nil {
		t.Fatal("5th series accepted past limit 4")
	} else if !strings.Contains(err.Error(), "series limit") {
		t.Fatalf("unhelpful limit error: %v", err)
	}
}

func TestRegistrationErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := reg.Counter("bad name", ""); err == nil {
		t.Fatal("invalid metric name accepted")
	}
	if _, err := reg.Counter("x_total", "", telemetry.L("0bad", "v")); err == nil {
		t.Fatal("invalid label key accepted")
	}
	if _, err := reg.Counter("dup_total", "", telemetry.L("a", "1")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Counter("dup_total", "", telemetry.L("a", "1")); err == nil {
		t.Fatal("duplicate series accepted")
	}
	if _, err := reg.Counter("x2_total", "", telemetry.L("a", "1"), telemetry.L("a", "2")); err == nil {
		t.Fatal("duplicate label key in one series accepted")
	}
	if err := reg.GaugeFunc("dup_total", "", func() float64 { return 0 }); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

// Label values with quotes, backslashes and newlines must be escaped.
func TestLabelEscaping(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.MustCounter("esc_total", "", telemetry.L("v", "a\"b\\c\nd"))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 0`) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
}

// Instrument updates are the hot path: one atomic op, zero allocations.
func TestUpdateZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instruments allocations")
	}
	reg := telemetry.NewRegistry()
	c := reg.MustCounter("c_total", "")
	h := reg.MustHistogram("h_seconds", "", telemetry.UnitSeconds)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

// The HTTP endpoint set: /metrics scrapes, /healthz always, /readyz
// follows the callback, pprof answers.
func TestHTTPEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.MustCounter("up_total", "").Add(3)
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
