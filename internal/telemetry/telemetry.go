// Package telemetry is the repo's metrics registry: named, labeled
// instruments over the same primitives the hot paths already use —
// scrape-time counter and gauge functions over state a subsystem already
// keeps, and the lock-free stats.Histogram — so that instrumenting the
// server, TM systems, WAL, and replication layers costs at most one
// atomic add per event and zero allocations at steady state.
//
// Registration happens once at wiring time (server construction) and
// may allocate; updates never do. Scraping (WritePrometheus) walks the
// registry read-only and renders Prometheus text exposition format,
// coarsened to one cumulative bucket per histogram octave.
//
// There is deliberately no package-global registry: each server owns a
// Registry instance, so parallel tests and multi-node processes (leader
// plus follower in one test binary) never collide.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sihtm/internal/stats"
)

// Kind is the Prometheus metric type of a family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one name=value pair on a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labeled member of a family. Exactly one of the value
// sources is set, matching the family kind; counters and gauges are
// always computed at scrape time from state their subsystem already
// keeps.
type series struct {
	labels []Label
	sig    string // canonical "k1=v1,k2=v2" signature, sorted by key

	counterFn func() uint64
	gaugeFn   func() float64
	hist      *stats.Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
}

// DefaultSeriesLimit bounds the label cardinality of one family. The
// instruments here are all low-cardinality by construction (abort
// causes, TM system names, commit paths); hitting the limit means a
// caller is minting labels from request data, which is a bug.
const DefaultSeriesLimit = 64

// Registry holds metric families. Create with NewRegistry; methods are
// safe for concurrent use, though registration normally happens once at
// wiring time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// signature canonicalizes a label set: sorted by key, "k=v" joined with
// commas. It doubles as the ordering key for deterministic output.
func signature(labels []Label) (string, error) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Key) {
			return "", fmt.Errorf("telemetry: invalid label key %q", l.Key)
		}
		if i > 0 && ls[i-1].Key == l.Key {
			return "", fmt.Errorf("telemetry: duplicate label key %q", l.Key)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), nil
}

// register validates and inserts one series, enforcing kind consistency
// across a family, series uniqueness, and the cardinality bound.
func (r *Registry) register(name, help string, kind Kind, labels []Label, s *series) error {
	if !validName(name) {
		return fmt.Errorf("telemetry: invalid metric name %q", name)
	}
	sig, err := signature(labels)
	if err != nil {
		return err
	}
	s.labels = append([]Label(nil), labels...)
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	s.sig = sig

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		return fmt.Errorf("telemetry: %s already registered as %s, not %s", name, f.kind, kind)
	}
	for _, have := range f.series {
		if have.sig == sig {
			return fmt.Errorf("telemetry: duplicate series %s{%s}", name, sig)
		}
	}
	if len(f.series) >= DefaultSeriesLimit {
		return fmt.Errorf("telemetry: family %s exceeds series limit %d — label values must be bounded, not request-derived", name, DefaultSeriesLimit)
	}
	f.series = append(f.series, s)
	return nil
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge to counters a subsystem already maintains
// (stats.Collector slots, WAL record counts) without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) error {
	return r.register(name, help, KindCounter, labels, &series{counterFn: fn})
}

// MustCounterFunc is CounterFunc, panicking on error. Wiring-time
// registration failures are programming errors.
func (r *Registry) MustCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if err := r.CounterFunc(name, help, fn, labels...); err != nil {
		panic(err)
	}
}

// GaugeFunc registers a gauge series computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) error {
	return r.register(name, help, KindGauge, labels, &series{gaugeFn: fn})
}

// MustGaugeFunc is GaugeFunc, panicking on error.
func (r *Registry) MustGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if err := r.GaugeFunc(name, help, fn, labels...); err != nil {
		panic(err)
	}
}

// MustHistogram registers a fresh stats.Histogram series and returns it;
// callers Observe durations on it directly. Every histogram family is a
// duration, rendered in seconds.
func (r *Registry) MustHistogram(name, help string, labels ...Label) *stats.Histogram {
	h := &stats.Histogram{}
	r.MustRegisterHistogram(name, help, h, labels...)
	return h
}

// MustRegisterHistogram attaches an existing histogram (the server's
// live service-latency histogram, the WAL's fsync histogram) as a
// series, panicking on error.
func (r *Registry) MustRegisterHistogram(name, help string, h *stats.Histogram, labels ...Label) {
	if err := r.register(name, help, KindHistogram, labels, &series{hist: h}); err != nil {
		panic(err)
	}
}

// sortedFamilies snapshots the family list in name order for rendering.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// SeriesInfo identifies one registered series: family name, kind and
// the sorted label set.
type SeriesInfo struct {
	Name   string
	Kind   Kind
	Labels []Label
}

// SeriesReader is one series plus its read path. Histograms expose the
// live histogram in Hist (Value is nil); counters and gauges expose a
// Value closure. Neither path allocates, so a scraper that preallocated
// its destination (internal/tsdb's snapshot ring) can sample the whole
// registry allocation-free.
type SeriesReader struct {
	Info  SeriesInfo
	Value func() float64
	Hist  *stats.Histogram
}

// Readers snapshots the registry as a flat reader list in deterministic
// (family name, label signature) order. Series registered after the
// call are not included — scrape layouts are built once at wiring time.
func (r *Registry) Readers() []SeriesReader {
	var out []SeriesReader
	for _, f := range r.sortedFamilies() {
		r.mu.Lock()
		ss := append([]*series(nil), f.series...)
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
		for _, s := range ss {
			rd := SeriesReader{Info: SeriesInfo{
				Name:   f.name,
				Kind:   f.kind,
				Labels: append([]Label(nil), s.labels...),
			}}
			switch {
			case s.hist != nil:
				rd.Hist = s.hist
			case s.counterFn != nil:
				fn := s.counterFn
				rd.Value = func() float64 { return float64(fn()) }
			default:
				rd.Value = s.gaugeFn
			}
			out = append(out, rd)
		}
	}
	return out
}
