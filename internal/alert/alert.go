// Package alert is the declarative SLO/alert rules engine over the
// tsdb ring: rules reference telemetry series by name, reduce them over
// trailing windows (value, delta, rate, share-of-denominator, quantile),
// and run a Prometheus-style state machine — inactive → pending (while
// a for-duration elapses) → firing, resolving the moment the condition
// clears. Burn-rate rules require a fast AND a slow window to breach
// before firing and resolve on fast-window recovery, the standard
// fast-burn/slow-burn SLO construction.
//
// The engine evaluates synchronously from the store's OnScrape hook, so
// alert latency is exactly one scrape interval. Transitions are
// exported two ways: structured log lines, and the /debug/alerts JSON
// surface (current rule states plus a bounded ring of transition
// events).
package alert

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"sihtm/internal/telemetry"
	"sihtm/internal/tsdb"
)

// RuleKind selects the evaluation shape.
type RuleKind int

const (
	// KindThreshold compares one reduced value over Window — a level
	// (ReduceValue, ReduceQuantile) or a progress rate (ReduceDelta,
	// ReduceRate: the stall rules).
	KindThreshold RuleKind = iota
	// KindBurnRate evaluates the signal over FastWindow and SlowWindow;
	// both must breach to fire, fast recovery resolves.
	KindBurnRate
)

func (k RuleKind) String() string {
	switch k {
	case KindThreshold:
		return "threshold"
	case KindBurnRate:
		return "burn-rate"
	default:
		return fmt.Sprintf("RuleKind(%d)", int(k))
	}
}

// Reduce maps a window of samples to one number.
type Reduce int

const (
	// ReduceValue is the latest sample (gauges).
	ReduceValue Reduce = iota
	// ReduceDelta is last-first over the window (counters).
	ReduceDelta
	// ReduceRate is delta per second over the window.
	ReduceRate
	// ReduceQuantile is the Q-quantile of a histogram's observations
	// within the window, in seconds. An empty window reduces to 0
	// ("no traffic, no violation").
	ReduceQuantile
)

// Op compares the reduced value to the threshold.
type Op int

const (
	OpGreater Op = iota
	OpLess
)

func (o Op) String() string {
	if o == OpLess {
		return "<"
	}
	return ">"
}

// Series names one telemetry series by family name and labels.
type Series struct {
	Name   string
	Labels []telemetry.Label
}

// Signal is what a rule measures: the sum of the reduced Series,
// optionally divided by the sum of the reduced Den series (a share —
// capacity aborts over attempts). A zero denominator with a zero
// numerator reduces to 0 (healthy); a zero denominator with a positive
// numerator reduces to +Inf.
type Signal struct {
	Series []Series
	Reduce Reduce
	Q      float64 // ReduceQuantile only
	Den    []Series
}

// Condition is a standalone signal comparison, used for rule gates.
type Condition struct {
	Signal    Signal
	Op        Op
	Threshold float64
}

// Rule is one declarative alert.
type Rule struct {
	Name     string
	Help     string
	Severity string // "page" | "warn" — advisory, rendered not enforced
	Kind     RuleKind

	Signal    Signal
	Op        Op
	Threshold float64

	// Window is the reduce window for threshold rules; Fast/SlowWindow
	// are the burn-rate pair.
	Window     time.Duration
	FastWindow time.Duration
	SlowWindow time.Duration

	// For is the hysteresis: the condition must hold this long before
	// the rule fires. 0 fires on the first breaching evaluation.
	For time.Duration

	// Gate, when set, must hold for the rule to be considered at all —
	// otherwise the rule reads healthy. Used to scope stall detection
	// to "stalled while actually behind".
	Gate *Condition
}

// State is the rule state machine position.
type State int

const (
	StateInactive State = iota
	StatePending
	StateFiring
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// Event is one firing/resolved transition.
type Event struct {
	Rule     string  `json:"rule"`
	Severity string  `json:"severity,omitempty"`
	To       string  `json:"to"` // "firing" | "resolved"
	AtNs     int64   `json:"at_ns"`
	Value    float64 `json:"value"`
}

// RuleStatus is one rule's current position for /debug/alerts.
type RuleStatus struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Severity  string  `json:"severity"`
	Help      string  `json:"help,omitempty"`
	State     string  `json:"state"`
	SinceNs   int64   `json:"since_ns,omitempty"`
	Value     float64 `json:"value"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
}

// Dump is the full /debug/alerts payload.
type Dump struct {
	Rules  []RuleStatus `json:"rules"`
	Events []Event      `json:"events"`
}

// maxEvents bounds the transition ring; oldest transitions drop first.
const maxEvents = 256

// resolvedSignal is a Signal with every series resolved to a store Ref.
type resolvedSignal struct {
	series []tsdb.Ref
	den    []tsdb.Ref
}

// ruleState is the mutable half of one rule.
type ruleState struct {
	state State
	since int64 // unix ns the current state was entered
	value float64
}

// Engine evaluates a fixed rule set against a Store.
type Engine struct {
	store *tsdb.Store
	rules []Rule
	sigs  []resolvedSignal
	gates []*resolvedSignal
	log   io.Writer

	mu     sync.Mutex
	states []ruleState
	events []Event
}

// New resolves every rule's series against the store's scrape layout
// (missing series are a wiring error), installs evaluation as the
// store's OnScrape hook, and returns the engine. logw receives one
// structured line per transition (io.Discard silences).
func New(store *tsdb.Store, rules []Rule, logw io.Writer) (*Engine, error) {
	if logw == nil {
		logw = io.Discard
	}
	e := &Engine{
		store:  store,
		rules:  rules,
		log:    logw,
		states: make([]ruleState, len(rules)),
	}
	for i := range rules {
		r := &rules[i]
		rs, err := resolveSignal(store, r.Name, r.Signal)
		if err != nil {
			return nil, err
		}
		e.sigs = append(e.sigs, rs)
		if r.Gate != nil {
			g, err := resolveSignal(store, r.Name+"/gate", r.Gate.Signal)
			if err != nil {
				return nil, err
			}
			e.gates = append(e.gates, &g)
		} else {
			e.gates = append(e.gates, nil)
		}
	}
	store.OnScrape(e.Eval)
	return e, nil
}

// resolveSignal maps every series name in sig to a store Ref.
func resolveSignal(store *tsdb.Store, rule string, sig Signal) (resolvedSignal, error) {
	var rs resolvedSignal
	for _, sr := range sig.Series {
		ref, ok := store.Lookup(sr.Name, sr.Labels...)
		if !ok {
			return rs, fmt.Errorf("alert: rule %s references unknown series %s%v", rule, sr.Name, sr.Labels)
		}
		rs.series = append(rs.series, ref)
	}
	for _, sr := range sig.Den {
		ref, ok := store.Lookup(sr.Name, sr.Labels...)
		if !ok {
			return rs, fmt.Errorf("alert: rule %s references unknown denominator series %s%v", rule, sr.Name, sr.Labels)
		}
		rs.den = append(rs.den, ref)
	}
	return rs, nil
}

// evalSignal reduces a signal over one window. ok is false only when
// the store holds too few points for the reduce — callers hold state.
func (e *Engine) evalSignal(rs resolvedSignal, sig Signal, window time.Duration) (float64, bool) {
	sumOver := func(refs []tsdb.Ref) (float64, bool) {
		var sum float64
		for _, ref := range refs {
			switch sig.Reduce {
			case ReduceValue:
				v, ok := e.store.LatestScalar(ref)
				if !ok {
					return 0, false
				}
				sum += v
			case ReduceDelta:
				d, ok := e.store.Delta(ref, window)
				if !ok {
					return 0, false
				}
				sum += d
			case ReduceRate:
				r, ok := e.store.Rate(ref, window)
				if !ok {
					return 0, false
				}
				sum += r
			}
		}
		return sum, true
	}
	if sig.Reduce == ReduceQuantile {
		// Single histogram series; an empty window is healthy silence.
		delta, _, ok := e.store.HistWindow(rs.series[0], window)
		if !ok {
			return 0, false
		}
		q, any := delta.QuantileOK(sig.Q)
		if !any {
			return 0, true
		}
		return q.Seconds(), true
	}
	num, ok := sumOver(rs.series)
	if !ok {
		return 0, false
	}
	if len(rs.den) == 0 {
		return num, true
	}
	den, ok := sumOver(rs.den)
	if !ok {
		return 0, false
	}
	if den <= 0 {
		if num <= 0 {
			return 0, true
		}
		// Positive numerator over a dead denominator: maximally bad,
		// but kept finite so the value stays JSON-encodable.
		return math.MaxFloat64, true
	}
	return num / den, true
}

func cmp(op Op, v, threshold float64) bool {
	if op == OpLess {
		return v < threshold
	}
	return v > threshold
}

// evalRule computes (value, ok, breach) for one rule. ok=false means
// not enough data yet — the state machine holds.
func (e *Engine) evalRule(i int, firing bool) (float64, bool, bool) {
	r := &e.rules[i]
	if g := e.gates[i]; g != nil {
		gv, gok := e.evalSignal(*g, r.Gate.Signal, gateWindow(r))
		if !gok {
			return 0, false, false
		}
		if !cmp(r.Gate.Op, gv, r.Gate.Threshold) {
			return 0, true, false
		}
	}
	switch r.Kind {
	case KindBurnRate:
		vF, okF := e.evalSignal(e.sigs[i], r.Signal, r.FastWindow)
		if !okF {
			return 0, false, false
		}
		if firing {
			// Resolve on fast-window recovery alone.
			return vF, true, cmp(r.Op, vF, r.Threshold)
		}
		vS, okS := e.evalSignal(e.sigs[i], r.Signal, r.SlowWindow)
		if !okS {
			return vF, false, false
		}
		return vF, true, cmp(r.Op, vF, r.Threshold) && cmp(r.Op, vS, r.Threshold)
	default:
		v, ok := e.evalSignal(e.sigs[i], r.Signal, r.Window)
		if !ok {
			return 0, false, false
		}
		return v, true, cmp(r.Op, v, r.Threshold)
	}
}

// gateWindow picks the reduce window for a rule's gate condition.
func gateWindow(r *Rule) time.Duration {
	if r.Kind == KindBurnRate {
		return r.FastWindow
	}
	return r.Window
}

// Eval runs one evaluation pass at the given timestamp. Installed as
// the store's OnScrape hook; may also be driven manually in tests.
func (e *Engine) Eval(at time.Time) {
	now := at.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.states[i]
		v, ok, breach := e.evalRule(i, st.state == StateFiring)
		if !ok {
			continue
		}
		st.value = v
		switch st.state {
		case StateInactive:
			if breach {
				if r.For <= 0 {
					e.transition(i, StateFiring, now, v)
				} else {
					st.state, st.since = StatePending, now
				}
			}
		case StatePending:
			switch {
			case !breach:
				st.state, st.since = StateInactive, now
			case now-st.since >= int64(r.For):
				e.transition(i, StateFiring, now, v)
			}
		case StateFiring:
			if !breach {
				e.transition(i, StateInactive, now, v)
			}
		}
	}
}

// transition moves rule i to firing or resolved under the lock,
// recording the event in both export channels.
func (e *Engine) transition(i int, to State, now int64, v float64) {
	r := &e.rules[i]
	st := &e.states[i]
	st.state, st.since = to, now
	word := "resolved"
	if to == StateFiring {
		word = "firing"
	}
	if len(e.events) >= maxEvents {
		copy(e.events, e.events[1:])
		e.events = e.events[:maxEvents-1]
	}
	e.events = append(e.events, Event{
		Rule: r.Name, Severity: r.Severity, To: word, AtNs: now, Value: v,
	})
	fmt.Fprintf(e.log, "alert: rule=%s severity=%s state=%s value=%g threshold=%s%g kind=%s\n",
		r.Name, r.Severity, word, v, r.Op, r.Threshold, r.Kind)
}

// State returns a rule's current state by name.
func (e *Engine) State(rule string) (State, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		if e.rules[i].Name == rule {
			return e.states[i].state, true
		}
	}
	return StateInactive, false
}

// Dump snapshots every rule's status and the transition event ring.
func (e *Engine) Dump() Dump {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := Dump{Events: append([]Event(nil), e.events...)}
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.states[i]
		d.Rules = append(d.Rules, RuleStatus{
			Name:      r.Name,
			Kind:      r.Kind.String(),
			Severity:  r.Severity,
			Help:      r.Help,
			State:     st.state.String(),
			SinceNs:   st.since,
			Value:     st.value,
			Op:        r.Op.String(),
			Threshold: r.Threshold,
		})
	}
	return d
}

// Handler serves the engine's Dump as JSON — the /debug/alerts surface.
func Handler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.Dump())
	})
}
