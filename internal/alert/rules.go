// Built-in rules for the domain: the capacity-cliff detector the paper
// is about, the latency SLO the admission controller steers toward, and
// the durability/replication health signals. DefaultRules emits only
// the rules whose series the node actually registers — WAL rules on
// durable nodes, watermark rules on followers, subscriber rules on
// leaders — so resolution against the scrape layout never fails.
package alert

import (
	"time"

	"sihtm/internal/stats"
	"sihtm/internal/telemetry"
)

// Rule names, exported so cells and smoke scripts can reference them
// without string drift.
const (
	RuleCapacityShare  = "capacity-abort-share"
	RuleP99SLO         = "p99-over-slo"
	RuleFsyncP99       = "fsync-p99"
	RuleWatermarkStall = "follower-watermark-stall"
	RuleDroppedSubs    = "repl-dropped-subscribers"
)

// fsyncP99Max is the fsync-latency threshold: well above a healthy
// group-commit window, low enough to catch a struggling disk.
const fsyncP99Max = 50 * time.Millisecond

// RuleOptions scopes DefaultRules to one node's role and knobs.
type RuleOptions struct {
	// System is the TM system label of the hosted workload ("si-htm",
	// "htm", ...) — the tm_* families are labeled per system.
	System string
	// Interval is the scrape cadence; every window scales from it.
	Interval time.Duration
	// P99Target enables the p99 SLO rule when > 0 (the --p99-target
	// knob), compared against the service-latency histogram.
	P99Target time.Duration
	// Durable: the node has a WAL (fsync rule applies).
	Durable bool
	// Follower: the node streams from a leader (watermark rule).
	Follower bool
	// Leader: the node publishes replication (dropped-subscriber rule).
	Leader bool
}

// attemptsSignal lists every series summing to transaction attempts for
// one system: both commit paths plus all five abort causes.
func attemptsSignal(system string) []Series {
	sys := telemetry.L("system", system)
	out := []Series{
		{Name: "sihtm_tm_commits_total", Labels: []telemetry.Label{telemetry.L("path", "update"), sys}},
		{Name: "sihtm_tm_commits_total", Labels: []telemetry.Label{telemetry.L("path", "read_only"), sys}},
	}
	for _, cause := range []string{"conflict", "non_transactional", "capacity", "explicit", "other"} {
		out = append(out, Series{Name: "sihtm_tm_aborts_total",
			Labels: []telemetry.Label{telemetry.L("cause", cause), sys}})
	}
	return out
}

// DefaultRules builds the role-appropriate built-in rule set.
func DefaultRules(o RuleOptions) []Rule {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	iv := o.Interval
	sys := telemetry.L("system", o.System)

	rules := []Rule{{
		// The capacity-cliff detector: share of attempts dying as HTM
		// capacity aborts, burn-rate over a fast/slow window pair so a
		// one-interval blip doesn't page but a real cliff fires within
		// one evaluation of the fast window filling.
		Name:     RuleCapacityShare,
		Help:     "HTM capacity-abort share of transaction attempts above the admission controller's ceiling — the TMCAM capacity cliff.",
		Severity: "page",
		Kind:     KindBurnRate,
		Signal: Signal{
			Series: []Series{{Name: "sihtm_tm_aborts_total",
				Labels: []telemetry.Label{telemetry.L("cause", "capacity"), sys}}},
			Reduce: ReduceRate,
			Den:    attemptsSignal(o.System),
		},
		Op:         OpGreater,
		Threshold:  stats.CapacityShareMax,
		FastWindow: 4 * iv,
		SlowWindow: 16 * iv,
	}}

	if o.P99Target > 0 {
		rules = append(rules, Rule{
			Name:     RuleP99SLO,
			Help:     "Service p99 over the --p99-target SLO on both burn windows.",
			Severity: "page",
			Kind:     KindBurnRate,
			Signal: Signal{
				Series: []Series{{Name: "sihtm_server_service_seconds"}},
				Reduce: ReduceQuantile,
				Q:      0.99,
			},
			Op:         OpGreater,
			Threshold:  o.P99Target.Seconds(),
			FastWindow: 8 * iv,
			SlowWindow: 32 * iv,
		})
	}

	if o.Durable {
		rules = append(rules, Rule{
			Name:     RuleFsyncP99,
			Help:     "WAL fsync p99 over threshold — group commit is losing its window to the disk.",
			Severity: "warn",
			Kind:     KindThreshold,
			Signal: Signal{
				Series: []Series{{Name: "sihtm_wal_fsync_seconds"}},
				Reduce: ReduceQuantile,
				Q:      0.99,
			},
			Op:        OpGreater,
			Threshold: fsyncP99Max.Seconds(),
			Window:    8 * iv,
			For:       2 * iv,
		})
	}

	if o.Follower {
		rules = append(rules, Rule{
			Name:     RuleWatermarkStall,
			Help:     "Follower watermark not advancing while behind the leader's frontier.",
			Severity: "page",
			Kind:     KindThreshold,
			Signal: Signal{
				Series: []Series{{Name: "sihtm_repl_watermark"}},
				Reduce: ReduceDelta,
			},
			Op:        OpLess,
			Threshold: 1, // fewer than one record applied over the window
			Window:    8 * iv,
			For:       2 * iv,
			Gate: &Condition{
				Signal:    Signal{Series: []Series{{Name: "sihtm_repl_lag"}}, Reduce: ReduceValue},
				Op:        OpGreater,
				Threshold: 0,
			},
		})
	}

	if o.Leader {
		rules = append(rules, Rule{
			Name:     RuleDroppedSubs,
			Help:     "Replication subscribers dropped for falling behind the stream.",
			Severity: "warn",
			Kind:     KindThreshold,
			Signal: Signal{
				Series: []Series{{Name: "sihtm_repl_dropped_subscribers_total"}},
				Reduce: ReduceDelta,
			},
			Op:        OpGreater,
			Threshold: 0,
			Window:    8 * iv,
		})
	}
	return rules
}
