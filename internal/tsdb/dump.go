// The /debug/timeseries surface: a JSON dump of the ring, one value per
// scrape point per series, with per-point interval quantiles for
// histograms. The same types are what internal/report (the live panel
// and the incident report) parses back, so the wire shape is the
// package's public contract, not an implementation detail.
package tsdb

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"sihtm/internal/telemetry"
)

// DumpSeries is one series' trajectory across the dumped points.
// Scalars carry Values; histograms carry cumulative observation Counts
// plus interval-delta p50/p99 in microseconds (the delta between
// adjacent dumped points — 0 when the interval saw no observations).
type DumpSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Values []float64         `json:"v,omitempty"`
	Counts []uint64          `json:"count,omitempty"`
	P50Us  []float64         `json:"p50_us,omitempty"`
	P99Us  []float64         `json:"p99_us,omitempty"`
}

// Dump is the full /debug/timeseries payload.
type Dump struct {
	IntervalMs     float64      `json:"interval_ms"`
	Retention      int          `json:"retention"`
	ScrapeOverruns uint64       `json:"scrape_overruns"`
	TimesNs        []int64      `json:"t_unix_ns"`
	Series         []DumpSeries `json:"series"`
}

// Dump renders the trailing window (0 = everything held) of every
// series whose name has the given prefix ("" = all).
func (s *Store) Dump(window time.Duration, prefix string) Dump {
	d := Dump{
		IntervalMs:     float64(s.interval) / float64(time.Millisecond),
		Retention:      len(s.slots),
		ScrapeOverruns: s.Overruns(),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sel := s.windowLocked(window)
	if len(sel) == 0 {
		return d
	}
	d.TimesNs = make([]int64, len(sel))
	for i, sl := range sel {
		d.TimesNs[i] = sl.at
	}
	for i, rd := range s.scalars {
		if !strings.HasPrefix(rd.Info.Name, prefix) {
			continue
		}
		ds := DumpSeries{
			Name:   rd.Info.Name,
			Labels: labelMap(rd.Info.Labels),
			Kind:   rd.Info.Kind.String(),
			Values: make([]float64, len(sel)),
		}
		for j, sl := range sel {
			ds.Values[j] = sl.scalars[i]
		}
		d.Series = append(d.Series, ds)
	}
	for i, rd := range s.hists {
		if !strings.HasPrefix(rd.Info.Name, prefix) {
			continue
		}
		ds := DumpSeries{
			Name:   rd.Info.Name,
			Labels: labelMap(rd.Info.Labels),
			Kind:   rd.Info.Kind.String(),
			Counts: make([]uint64, len(sel)),
			P50Us:  make([]float64, len(sel)),
			P99Us:  make([]float64, len(sel)),
		}
		for j, sl := range sel {
			snap := sl.hists[i]
			ds.Counts[j] = snap.Count()
			if j > 0 {
				snap = snap.Sub(sel[j-1].hists[i])
			}
			if q, ok := snap.QuantileOK(0.5); ok {
				ds.P50Us[j] = float64(q) / float64(time.Microsecond)
			}
			if q, ok := snap.QuantileOK(0.99); ok {
				ds.P99Us[j] = float64(q) / float64(time.Microsecond)
			}
		}
		d.Series = append(d.Series, ds)
	}
	return d
}

// labelMap converts a sorted label slice to the dump's map form.
func labelMap(labels []telemetry.Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Find returns every dumped series with the given name.
func (d *Dump) Find(name string) []DumpSeries {
	var out []DumpSeries
	for _, s := range d.Series {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// windowStart returns the index of the first dumped point within the
// trailing window (0 = everything).
func (d *Dump) windowStart(window time.Duration) int {
	if len(d.TimesNs) == 0 || window <= 0 {
		return 0
	}
	cut := d.TimesNs[len(d.TimesNs)-1] - int64(window)
	lo := 0
	for lo < len(d.TimesNs) && d.TimesNs[lo] < cut {
		lo++
	}
	return lo
}

// ScalarDelta returns last-first of a scalar series over the trailing
// window of the dump.
func (d *Dump) ScalarDelta(ds DumpSeries, window time.Duration) (float64, bool) {
	lo := d.windowStart(window)
	if len(ds.Values) != len(d.TimesNs) || len(ds.Values)-lo < 2 {
		return 0, false
	}
	return ds.Values[len(ds.Values)-1] - ds.Values[lo], true
}

// ScalarRate returns the per-second increase of a scalar series over
// the trailing window of the dump.
func (d *Dump) ScalarRate(ds DumpSeries, window time.Duration) (float64, bool) {
	lo := d.windowStart(window)
	delta, ok := d.ScalarDelta(ds, window)
	if !ok {
		return 0, false
	}
	dt := time.Duration(d.TimesNs[len(d.TimesNs)-1] - d.TimesNs[lo])
	if dt <= 0 {
		return 0, false
	}
	return delta / dt.Seconds(), true
}

// Last returns the most recent value of a scalar series (0 if empty).
func (ds DumpSeries) Last() float64 {
	if len(ds.Values) == 0 {
		return 0
	}
	return ds.Values[len(ds.Values)-1]
}

// LastP99Us returns the most recent non-zero interval p99 (µs) of a
// histogram series — "the latest latency the server actually saw",
// skipping idle intervals. Trim the dump to a window to bound how far
// back that looks.
func (ds DumpSeries) LastP99Us() float64 {
	for i := len(ds.P99Us) - 1; i >= 0; i-- {
		if ds.P99Us[i] > 0 {
			return ds.P99Us[i]
		}
	}
	return 0
}

// Handler serves the store as JSON. Query params: ?window=DUR trims to
// the trailing window (Go duration syntax), ?prefix=NAME filters series
// by name prefix.
func Handler(s *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var window time.Duration
		if v := r.URL.Query().Get("window"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad window: "+err.Error(), http.StatusBadRequest)
				return
			}
			window = d
		}
		prefix := r.URL.Query().Get("prefix")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.Encode(s.Dump(window, prefix))
	})
}
