package main

import "math"

// metricDef names a metric. The tables below are the benchmark's
// contract with BENCHMARK.json; bench_test.go holds them equal.
type metricDef struct {
	name, unit, better string
	// End-to-end only. bound is the share of the parent's median by which
	// the metric may worsen; gated says whether BENCHMARK.json lists it.
	bound float64
	gated bool
}

// endToEnd are the metrics a user of the system would see, printed for
// every workload. Three of them are printed but not listed in
// BENCHMARK.json, whose end_to_end metrics gate later changes:
// fail_frac is 0 on every healthy run, and a relative bound on 0 means
// nothing (the result line's "failed" carries it); lat_p99_us and
// cpu_us_per_tx do not repeat within any admissible bound on net-durable
// (README.md, "Reference results"): the first is the slowest handful of
// fsyncs of a shared disk, the second at a fifth of a core's load is
// mostly what waking idle threads costs on a shared host, and spread 0.28
// between the quartiles of ten runs of the same code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"tx_per_s", "1/s", "higher", 0.25, true},
	{"lat_p50_us", "us", "lower", 0.25, true},
	{"lat_p99_us", "us", "lower", 0.25, false},
	{"within_limit_frac", "ratio", "higher", 0.15, true},
	{"fail_frac", "ratio", "lower", 0, false},
	{"cpu_us_per_tx", "us", "lower", 0.25, false},
	{"heap_live_mb", "MB", "lower", 0.10, true},
}

// perLayer are the traced run's metrics, by layer. A layer that does
// nothing on a workload reports 0.
var perLayer = []metricDef{
	{name: "tm.atomic_ns", unit: "ns", better: "lower"},
	{name: "tm.self_ns", unit: "ns", better: "lower"},
	{name: "tm.attempts_per_commit", unit: "ratio", better: "lower"},
	{name: "tm.useful_frac", unit: "ratio", better: "higher"},
	{name: "tm.conflict_per_ktx", unit: "count", better: "lower"},
	{name: "tm.capacity_per_ktx", unit: "count", better: "lower"},
	{name: "tm.fallback_per_ktx", unit: "count", better: "lower"},
	{name: "tm.wait_spins_per_tx", unit: "count", better: "lower"},
	{name: "tm.ro_share", unit: "ratio", better: "higher"},
	{name: "tm.det.commits", unit: "count", better: "higher"},
	{name: "tm.det.capacity_htm", unit: "count", better: "lower"},
	{name: "tm.det.fallback_htm", unit: "count", better: "lower"},
	{name: "tm.det.capacity_sihtm", unit: "count", better: "lower"},
	{name: "tm.det.rot_begins_sihtm", unit: "count", better: "lower"},
	{name: "tm.det.htm_begins_sihtm", unit: "count", better: "lower"},
	{name: "tm.htm_ref_tx_per_s", unit: "1/s", better: "higher"},
	{name: "tm.si_over_htm", unit: "ratio", better: "higher"},
	{name: "tm.htm_ref_capacity_per_ktx", unit: "count", better: "lower"},
	{name: "htm.reads_per_tx", unit: "count", better: "lower"},
	{name: "htm.writes_per_tx", unit: "count", better: "lower"},
	{name: "htm.read_ns", unit: "ns", better: "lower"},
	{name: "htm.write_ns", unit: "ns", better: "lower"},
	{name: "htm.read_lines_p50", unit: "count", better: "lower"},
	{name: "htm.read_lines_p99", unit: "count", better: "lower"},
	{name: "htm.write_lines_p50", unit: "count", better: "lower"},
	{name: "htm.write_lines_p99", unit: "count", better: "lower"},
	{name: "engine.read_ns", unit: "ns", better: "lower"},
	{name: "engine.rmw_ns", unit: "ns", better: "lower"},
	{name: "engine.accesses_per_read", unit: "count", better: "lower"},
	{name: "wire.encode_req_ns", unit: "ns", better: "lower"},
	{name: "wire.parse_reply_ns", unit: "ns", better: "lower"},
	{name: "wire.parse_req_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_reply_ns", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_req", unit: "B", better: "lower"},
	{name: "wire.bytes_per_reply", unit: "B", better: "lower"},
	{name: "server.ops_per_batch", unit: "count", better: "higher"},
	{name: "server.batches_per_s", unit: "1/s", better: "lower"},
	{name: "server.admit_wait_us_p50", unit: "us", better: "lower"},
	{name: "server.admit_wait_us_p99", unit: "us", better: "lower"},
	{name: "server.exec_us_mean", unit: "us", better: "lower"},
	{name: "server.flush_us_p50", unit: "us", better: "lower"},
	{name: "server.service_us_p50", unit: "us", better: "lower"},
	{name: "server.replies_per_read", unit: "count", better: "higher"},
	{name: "server.err_replies", unit: "count", better: "lower"},
	{name: "wal.recs_per_fsync", unit: "count", better: "higher"},
	{name: "wal.fsyncs_per_s", unit: "1/s", better: "lower"},
	{name: "wal.bytes_per_tx", unit: "B", better: "lower"},
	{name: "wal.fsync_us_p50", unit: "us", better: "lower"},
	{name: "wal.fsync_us_p99", unit: "us", better: "lower"},
	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.sync_us", unit: "us", better: "lower"},
	{name: "durable.ack_self_us", unit: "us", better: "lower"},
	{name: "durable.ack_wait_us_p50", unit: "us", better: "lower"},
	{name: "durable.ack_wait_us_p99", unit: "us", better: "lower"},
	{name: "durable.recover_s", unit: "s", better: "lower"},
	{name: "durable.recover_recs_per_s", unit: "1/s", better: "higher"},
	{name: "replica.lag_recs_p50", unit: "count", better: "lower"},
	{name: "replica.lag_recs_p99", unit: "count", better: "lower"},
	{name: "replica.applied_per_s", unit: "1/s", better: "higher"},
	{name: "replica.catchup_ms", unit: "ms", better: "lower"},
	{name: "replica.reconnects", unit: "count", better: "lower"},
	{name: "telemetry.scrape_us", unit: "us", better: "lower"},
	{name: "telemetry.series", unit: "count", better: "lower"},
	{name: "gen.late_p99_us", unit: "us", better: "lower"},
	{name: "gen.achieved_frac", unit: "ratio", better: "higher"},
	{name: "rt.alloc_bytes_per_tx", unit: "B", better: "lower"},
	{name: "rt.allocs_per_tx", unit: "count", better: "lower"},
	{name: "rt.gc_cycles", unit: "count", better: "lower"},
	{name: "rt.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace_overhead_frac", unit: "ratio", better: "lower"},
}

func defOf(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not defined")
}

// metricValue is one reported metric. For a metric taken per slice, Value
// is the quiet decile over the slices; Median, Min and Max are their
// spread.
type metricValue struct {
	Name       string    `json:"name"`
	Unit       string    `json:"unit"`
	Value      float64   `json:"value"`
	Median     float64   `json:"median,omitempty"`
	Min        float64   `json:"min,omitempty"`
	Max        float64   `json:"max,omitempty"`
	Slices     int       `json:"slices,omitempty"`
	PerSlice   []float64 `json:"per_slice,omitempty"`
	Samples    int       `json:"samples,omitempty"`
	Unresolved bool      `json:"unresolved,omitempty"`
	Note       string    `json:"note,omitempty"`
}

// sliceMetric reports an end-to-end metric from its per-slice values.
func sliceMetric(name string, vals []float64, samples int) metricValue {
	d := defOf(endToEnd, name)
	s := summarise(vals, d.better == "higher")
	return metricValue{
		Name: name, Unit: d.unit, Value: s.Quiet, Median: s.Median, Min: s.Min, Max: s.Max,
		Slices: s.N, PerSlice: vals, Samples: samples, Unresolved: s.unresolved(d.bound),
	}
}

// wholeMetric reports an end-to-end metric measured once per run.
func wholeMetric(name string, v float64) metricValue {
	return metricValue{Name: name, Unit: defOf(endToEnd, name).unit, Value: v}
}

// layerValues collects the traced run's metrics by name.
type layerValues struct{ v map[string]float64 }

func newLayerValues() *layerValues { return &layerValues{v: map[string]float64{}} }

func (L *layerValues) set(name string, v float64) {
	defOf(perLayer, name) // a misspelt name is a bug
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over a window in which nothing happened
	}
	L.v[name] = v
}

// metrics lists every per-layer metric in table order; what the workload
// does not exercise reads 0.
func (L *layerValues) metrics() []metricValue {
	out := make([]metricValue, 0, len(perLayer))
	for _, d := range perLayer {
		out = append(out, metricValue{Name: d.name, Unit: d.unit, Value: L.v[d.name]})
	}
	return out
}
