// Package tsdb is the in-process time-series store over the telemetry
// registry: a scraper that samples every registered series on a fixed
// interval into a bounded ring of snapshots, plus delta/rate/quantile
// window math for the alert engine and the /debug/timeseries JSON
// surface.
//
// The ring is fully preallocated at construction — every slot carries a
// scalar vector and one HistogramSnapshot per histogram series with its
// bucket array already sized — so a steady-state Scrape performs zero
// allocations (pinned by TestScrapeZeroAllocs, race-gated like the wire
// and trace pins). The store deliberately has no query language: the
// alert engine and the dump endpoint are its only consumers, and both
// work from series references resolved once at wiring time.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/stats"
	"sihtm/internal/telemetry"
)

// Defaults: one snapshot per second, four minutes of retention — small
// enough to hold every smoke run whole, big enough for slow-burn alert
// windows.
const (
	DefaultInterval  = time.Second
	DefaultRetention = 240
)

// Config sizes a Store.
type Config struct {
	// Interval is the self-scrape cadence (default DefaultInterval).
	Interval time.Duration
	// Retention is the ring capacity in snapshots (default
	// DefaultRetention).
	Retention int
}

// Ref locates one series in the store's scrape layout. Resolve with
// Lookup once at wiring time; the zero Ref is not valid.
type Ref struct {
	hist bool
	idx  int
}

// slot is one scrape: a timestamp, every scalar value, and a full
// bucket snapshot of every histogram. All storage is preallocated.
type slot struct {
	at      int64 // unix nanoseconds
	scalars []float64
	hists   []stats.HistogramSnapshot
}

// Store scrapes a telemetry.Registry into a ring of slots.
type Store struct {
	interval    time.Duration
	scalars     []telemetry.SeriesReader
	hists       []telemetry.SeriesReader
	byKey       map[string]Ref
	afterScrape func(time.Time)

	mu    sync.RWMutex
	slots []slot
	head  int // next slot to write
	count int // filled slots, <= len(slots)

	overruns  atomic.Uint64
	started   atomic.Bool
	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// seriesKey is the lookup key of one series: name{sig} with the label
// signature in telemetry's canonical sorted form.
func seriesKey(name string, labels []telemetry.Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]telemetry.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// New builds a store over every series currently registered in reg.
// Series registered after New are rendered by /metrics but not captured
// in the ring.
func New(reg *telemetry.Registry, cfg Config) *Store {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Retention <= 0 {
		cfg.Retention = DefaultRetention
	}
	s := &Store{
		interval: cfg.Interval,
		byKey:    make(map[string]Ref),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, rd := range reg.Readers() {
		if rd.Hist != nil {
			s.byKey[seriesKey(rd.Info.Name, rd.Info.Labels)] = Ref{hist: true, idx: len(s.hists)}
			s.hists = append(s.hists, rd)
		} else {
			s.byKey[seriesKey(rd.Info.Name, rd.Info.Labels)] = Ref{idx: len(s.scalars)}
			s.scalars = append(s.scalars, rd)
		}
	}
	s.slots = make([]slot, cfg.Retention)
	for i := range s.slots {
		s.slots[i].scalars = make([]float64, len(s.scalars))
		s.slots[i].hists = make([]stats.HistogramSnapshot, len(s.hists))
		for j := range s.slots[i].hists {
			s.slots[i].hists[j].Counts = make([]uint64, stats.NumHistogramBuckets)
		}
	}
	return s
}

// Interval returns the configured scrape cadence.
func (s *Store) Interval() time.Duration { return s.interval }

// Overruns counts scrapes that took longer than the interval — the
// self-observed bound on scrape overhead.
func (s *Store) Overruns() uint64 { return s.overruns.Load() }

// OnScrape installs a hook invoked after every scrape with the scrape
// timestamp — the alert engine's evaluation entry point. Install before
// Start; not safe to change while the scrape loop runs.
func (s *Store) OnScrape(fn func(time.Time)) { s.afterScrape = fn }

// Lookup resolves a series to a Ref. Labels may be given in any order.
func (s *Store) Lookup(name string, labels ...telemetry.Label) (Ref, bool) {
	ref, ok := s.byKey[seriesKey(name, labels)]
	return ref, ok
}

// Scrape samples every series into the next ring slot at the current
// time. Normally driven by Start's ticker; exposed for manual drivers.
func (s *Store) Scrape() { s.ScrapeAt(time.Now()) }

// ScrapeAt is Scrape with an explicit timestamp — the deterministic
// entry point for tests and offline drivers. Timestamps must be
// monotonically non-decreasing across calls.
func (s *Store) ScrapeAt(at time.Time) {
	start := time.Now()
	s.mu.Lock()
	sl := &s.slots[s.head]
	sl.at = at.UnixNano()
	for i := range s.scalars {
		sl.scalars[i] = s.scalars[i].Value()
	}
	for i := range s.hists {
		s.hists[i].Hist.SnapshotInto(&sl.hists[i])
	}
	s.head = (s.head + 1) % len(s.slots)
	if s.count < len(s.slots) {
		s.count++
	}
	s.mu.Unlock()
	if time.Since(start) > s.interval {
		s.overruns.Add(1)
	}
	if s.afterScrape != nil {
		s.afterScrape(at)
	}
}

// Start launches the scrape loop. Idempotent.
func (s *Store) Start() {
	s.startOnce.Do(func() {
		s.started.Store(true)
		go s.run()
	})
}

func (s *Store) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Scrape()
		}
	}
}

// Close stops the scrape loop and waits for it to exit. Safe to call
// whether or not Start ran, and more than once.
func (s *Store) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// ordered iterates the filled slots oldest-first under the read lock.
func (s *Store) ordered(f func(sl *slot)) {
	first := s.head - s.count
	if first < 0 {
		first += len(s.slots)
	}
	for i := 0; i < s.count; i++ {
		f(&s.slots[(first+i)%len(s.slots)])
	}
}

// window collects pointers to the slots whose timestamps fall within
// the trailing window, measured back from the newest slot (not the wall
// clock, so manually scraped test data behaves identically). window <=
// 0 selects everything. Caller must hold the read lock.
func (s *Store) windowLocked(window time.Duration) []*slot {
	if s.count == 0 {
		return nil
	}
	var sel []*slot
	s.ordered(func(sl *slot) { sel = append(sel, sl) })
	if window <= 0 {
		return sel
	}
	newest := sel[len(sel)-1].at
	cut := newest - int64(window)
	lo := 0
	for lo < len(sel) && sel[lo].at < cut {
		lo++
	}
	return sel[lo:]
}

// LatestScalar returns the most recent sample of a scalar series.
func (s *Store) LatestScalar(ref Ref) (float64, bool) {
	if ref.hist {
		return 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.count == 0 {
		return 0, false
	}
	last := s.head - 1
	if last < 0 {
		last += len(s.slots)
	}
	return s.slots[last].scalars[ref.idx], true
}

// scalarWindow returns the first and last samples of a scalar series
// within the trailing window plus the wall time between them. ok
// demands at least two samples in the window.
func (s *Store) scalarWindow(ref Ref, window time.Duration) (first, last float64, dt time.Duration, ok bool) {
	if ref.hist {
		return 0, 0, 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sel := s.windowLocked(window)
	if len(sel) < 2 {
		return 0, 0, 0, false
	}
	a, b := sel[0], sel[len(sel)-1]
	return a.scalars[ref.idx], b.scalars[ref.idx], time.Duration(b.at - a.at), true
}

// Delta returns last-first of a scalar series over the trailing window.
func (s *Store) Delta(ref Ref, window time.Duration) (float64, bool) {
	first, last, _, ok := s.scalarWindow(ref, window)
	return last - first, ok
}

// Rate returns the per-second increase of a scalar series over the
// trailing window.
func (s *Store) Rate(ref Ref, window time.Duration) (float64, bool) {
	first, last, dt, ok := s.scalarWindow(ref, window)
	if !ok || dt <= 0 {
		return 0, false
	}
	return (last - first) / dt.Seconds(), true
}

// HistWindow returns the bucket-wise delta of a histogram series over
// the trailing window — the observations that window saw — plus the
// wall time it spans. ok demands at least two snapshots in the window.
func (s *Store) HistWindow(ref Ref, window time.Duration) (stats.HistogramSnapshot, time.Duration, bool) {
	if !ref.hist {
		return stats.HistogramSnapshot{}, 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sel := s.windowLocked(window)
	if len(sel) < 2 {
		return stats.HistogramSnapshot{}, 0, false
	}
	a, b := sel[0], sel[len(sel)-1]
	return b.hists[ref.idx].Sub(a.hists[ref.idx]), time.Duration(b.at - a.at), true
}
