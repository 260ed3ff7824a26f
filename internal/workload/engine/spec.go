package engine

import (
	"fmt"
	"strings"

	"sihtm/internal/wire"
)

// Op enumerates the primitive operations a workload mix composes: the
// mix vocabulary of Specs and registry strings. The driver plans each
// as the data-plane op Kind names, and Exec gives it its meaning.
type Op int

// The operation vocabulary.
const (
	// OpRead is a point lookup.
	OpRead Op = iota
	// OpReadModifyWrite reads a key and writes back the value plus 1.
	OpReadModifyWrite
	// OpInsert upserts a key with InitialValue(key) (update if present,
	// insert if absent).
	OpInsert
	// OpDelete removes a key.
	OpDelete
	// OpScan visits Spec.ScanLen entries starting at the drawn key.
	OpScan
	numOps
)

// String implements fmt.Stringer with the short codes used in registry
// parameter strings.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "r"
	case OpReadModifyWrite:
		return "rmw"
	case OpInsert:
		return "ins"
	case OpDelete:
		return "del"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Kind is the data-plane op a mix entry executes.
func (o Op) Kind() wire.OpKind { return opKinds[o] }

var opKinds = [numOps]wire.OpKind{
	OpRead:            wire.OpGet,
	OpReadModifyWrite: wire.OpRMW,
	OpInsert:          wire.OpPut,
	OpDelete:          wire.OpDel,
	OpScan:            wire.OpScan,
}

// MixEntry gives one op a share of the mix, in percent.
type MixEntry struct {
	Op      Op
	Percent int
}

// DistKind names a key distribution family.
type DistKind int

// The supported key distributions.
const (
	// DistUniform draws keys uniformly over the keyspace.
	DistUniform DistKind = iota
	// DistZipfian draws rank k with probability ∝ 1/(k+1)^θ (YCSB's
	// zipfian generator); rank 0 is the hottest key.
	DistZipfian
	// DistHotSet sends HotOpsPercent of draws to the first
	// HotKeysPercent of the keyspace, the rest uniformly to the cold
	// remainder.
	DistHotSet
)

// String implements fmt.Stringer.
func (k DistKind) String() string {
	switch k {
	case DistUniform:
		return "uniform"
	case DistZipfian:
		return "zipfian"
	case DistHotSet:
		return "hotset"
	default:
		return fmt.Sprintf("DistKind(%d)", int(k))
	}
}

// Dist declares a key distribution.
type Dist struct {
	Kind DistKind
	// Theta is the Zipfian skew parameter, in [0, 1) (0.99 is YCSB's
	// default; 0 degenerates to uniform).
	Theta float64
	// HotKeysPercent and HotOpsPercent parameterise DistHotSet.
	HotKeysPercent, HotOpsPercent int
}

// String renders the distribution for registry parameter strings.
func (d Dist) String() string {
	switch d.Kind {
	case DistZipfian:
		return fmt.Sprintf("zipf(%.2f)", d.Theta)
	case DistHotSet:
		return fmt.Sprintf("hot(%d%%keys/%d%%ops)", d.HotKeysPercent, d.HotOpsPercent)
	default:
		return "uniform"
	}
}

// Spec declares one workload: everything the Driver needs to generate
// deterministic per-thread operation streams.
type Spec struct {
	// Name identifies the workload in errors and docs.
	Name string
	// Keys is the keyspace size: keys are drawn from [0, Keys), and
	// Populate fills all of them.
	Keys int
	// Dist is the key distribution.
	Dist Dist
	// Mix is the operation mix; percentages must sum to 100.
	Mix []MixEntry
	// OpsPerTxMin/Max bound the per-transaction operation count, drawn
	// uniformly in [Min, Max] (Max <= Min means every transaction has
	// exactly Min ops).
	OpsPerTxMin, OpsPerTxMax int
	// ScanLen is the entries visited per OpScan (defaults to 16).
	ScanLen int
	// Seed reproduces the run; per-thread streams derive from it via
	// rng.Stream.
	Seed uint64
}

func (s Spec) withDefaults() Spec {
	if s.OpsPerTxMin <= 0 {
		s.OpsPerTxMin = 1
	}
	if s.ScanLen <= 0 {
		s.ScanLen = 16
	}
	return s
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Keys <= 0 {
		return fmt.Errorf("engine: %s: keyspace must be positive, got %d", s.Name, s.Keys)
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("engine: %s: empty op mix", s.Name)
	}
	total := 0
	for _, m := range s.Mix {
		if m.Op < 0 || m.Op >= numOps {
			return fmt.Errorf("engine: %s: unknown op %d in mix", s.Name, int(m.Op))
		}
		if m.Percent <= 0 {
			return fmt.Errorf("engine: %s: mix share for %s must be positive, got %d", s.Name, m.Op, m.Percent)
		}
		total += m.Percent
	}
	if total != 100 {
		return fmt.Errorf("engine: %s: mix sums to %d, want 100", s.Name, total)
	}
	if s.OpsPerTxMin <= 0 {
		return fmt.Errorf("engine: %s: ops/tx must be positive, got %d", s.Name, s.OpsPerTxMin)
	}
	if err := s.Dist.Check(); err != nil {
		return fmt.Errorf("engine: %s: %w", s.Name, err)
	}
	return nil
}

// MixString renders the mix compactly, e.g. "95r/5rmw".
func (s Spec) MixString() string {
	parts := make([]string, 0, len(s.Mix))
	for _, m := range s.Mix {
		parts = append(parts, fmt.Sprintf("%d%s", m.Percent, m.Op))
	}
	return strings.Join(parts, "/")
}

// Params renders the spec for `repro list`.
func (s Spec) Params() string {
	tx := fmt.Sprintf("%d", s.OpsPerTxMin)
	if s.OpsPerTxMax > s.OpsPerTxMin {
		tx = fmt.Sprintf("%d..%d", s.OpsPerTxMin, s.OpsPerTxMax)
	}
	return fmt.Sprintf("keys=%d dist=%s mix=%s ops/tx=%s", s.Keys, s.Dist, s.MixString(), tx)
}
