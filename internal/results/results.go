// Package results is the typed result layer of the reproduction
// pipeline: every measurement the repository can produce — a figure
// panel's (system, thread-count) point or an ablation's parameter-sweep
// point — becomes one Record, and a run of the pipeline becomes one
// Report that serializes to JSON (the `BENCH_repro.json` artifact) and
// renders to the markdown tables of `BENCH_repro.md`.
//
// The package also implements baseline comparison: Compare matches the
// records of two reports cell by cell and flags throughput regressions
// beyond a tolerance, which is what CI uses to detect a slowdown between
// commits without caring about absolute numbers (the simulator's
// throughput depends on the host).
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"sihtm/internal/harness"
	"sihtm/internal/stats"
)

// Record is one measurement: a single (experiment, system, threads,
// param) cell of the evaluation. Abort counts follow the paper's
// taxonomy (§4).
type Record struct {
	// Experiment is the registry id, e.g. "fig6-low" or "capacity".
	Experiment string `json:"experiment"`
	// Figure is the paper figure the experiment reproduces (0 for
	// ablations that have no figure).
	Figure int `json:"figure,omitempty"`
	// Panel distinguishes the figure's contention panels ("low"/"high").
	Panel string `json:"panel,omitempty"`
	// Workload names the workload family ("hashmap", "tpcc", "synthetic").
	Workload string `json:"workload,omitempty"`
	// System is the concurrency control under test ("si-htm", "htm", ...).
	System string `json:"system"`
	// Threads is the worker count of this point.
	Threads int `json:"threads"`
	// Param carries the swept parameter of ablation points (e.g.
	// "footprint=96", "tmcam=32", "placement=stacked"). Empty for
	// thread-ladder points.
	Param string `json:"param,omitempty"`
	// Order is the experiment's registry presentation rank, used to
	// keep same-figure records (notably the figure-0 ablations) in
	// registry order rather than alphabetical order.
	Order int `json:"order,omitempty"`

	ElapsedSec float64 `json:"elapsed_sec"`
	// Throughput is committed transactions per second.
	Throughput float64 `json:"throughput_tx_s"`
	Commits    uint64  `json:"commits"`
	CommitsRO  uint64  `json:"commits_ro"`
	// Abort counts by cause, as in the paper's abort-breakdown panels.
	AbortsTransactional    uint64 `json:"aborts_transactional"`
	AbortsNonTransactional uint64 `json:"aborts_non_transactional"`
	AbortsCapacity         uint64 `json:"aborts_capacity"`
	AbortsExplicit         uint64 `json:"aborts_explicit"`
	AbortsOther            uint64 `json:"aborts_other"`
	Fallbacks              uint64 `json:"fallbacks"`
	// AbortRate is total aborts / attempts (attempts = commits + aborts).
	AbortRate float64 `json:"abort_rate"`
}

// Key identifies a record's cell for matching between reports.
type Key struct {
	Experiment string
	System     string
	Threads    int
	Param      string
}

// Key returns the record's comparison key.
func (r Record) Key() Key {
	return Key{Experiment: r.Experiment, System: r.System, Threads: r.Threads, Param: r.Param}
}

// TotalAborts sums the abort counts across causes.
func (r Record) TotalAborts() uint64 {
	return r.AbortsTransactional + r.AbortsNonTransactional + r.AbortsCapacity + r.AbortsExplicit + r.AbortsOther
}

// AbortPercent returns aborts of one cause as a percentage of attempts.
func (r Record) AbortPercent(count uint64) float64 {
	attempts := r.Commits + r.TotalAborts()
	if attempts == 0 {
		return 0
	}
	return 100 * float64(count) / float64(attempts)
}

// FromHarness converts a harness measurement into a Record. The caller
// supplies the registry coordinates; param may be empty.
func FromHarness(experiment string, figure int, panel, workload, param string, hr harness.Result) Record {
	return Record{
		Experiment:             experiment,
		Figure:                 figure,
		Panel:                  panel,
		Workload:               workload,
		System:                 hr.System,
		Threads:                hr.Threads,
		Param:                  param,
		ElapsedSec:             hr.Elapsed.Seconds(),
		Throughput:             hr.Throughput,
		Commits:                hr.Stats.Commits,
		CommitsRO:              hr.Stats.CommitsRO,
		AbortsTransactional:    hr.Stats.Aborts[stats.AbortTransactional],
		AbortsNonTransactional: hr.Stats.Aborts[stats.AbortNonTransactional],
		AbortsCapacity:         hr.Stats.Aborts[stats.AbortCapacity],
		AbortsExplicit:         hr.Stats.Aborts[stats.AbortExplicit],
		AbortsOther:            hr.Stats.Aborts[stats.AbortOther],
		Fallbacks:              hr.Stats.Fallbacks,
		AbortRate:              hr.Stats.AbortRate(),
	}
}

// Report is a full pipeline run: provenance metadata plus every record.
type Report struct {
	// Tool identifies the producer (e.g. "cmd/repro").
	Tool string `json:"tool"`
	// Scale names the scale preset the run used ("ci", "quick", "paper").
	Scale string `json:"scale"`
	// GOMAXPROCS records the host parallelism the simulator ran under —
	// absolute throughput is only comparable at equal values.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Shards records how many (experiment × system) cells ran
	// concurrently. Timed cells contend with their co-runners, so
	// comparing reports produced at different shard counts is
	// misleading; Compare warns on a mismatch.
	Shards int `json:"shards,omitempty"`
	// Partial marks a report whose run aborted before every selected
	// cell completed (the records present are still valid).
	Partial bool `json:"partial,omitempty"`
	// Machine describes the simulated hardware.
	Machine string `json:"machine"`
	// Records holds every measurement, sorted by Sort.
	Records []Record `json:"records"`
}

// Sort orders records by (figure, experiment, param, threads, system) so
// serialized reports are deterministic regardless of shard scheduling.
// Figures come before ablations (figure 0); params with numeric suffixes
// ("footprint=96") order numerically.
func (rep *Report) Sort() {
	sort.SliceStable(rep.Records, func(i, j int) bool {
		a, b := rep.Records[i], rep.Records[j]
		if fa, fb := figureRank(a.Figure), figureRank(b.Figure); fa != fb {
			return fa < fb
		}
		if pa, pb := panelRank(a.Panel), panelRank(b.Panel); pa != pb {
			return pa < pb
		}
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Param != b.Param {
			return paramLess(a.Param, b.Param)
		}
		if a.Threads != b.Threads {
			return a.Threads < b.Threads
		}
		return a.System < b.System
	})
}

// figureRank sorts ablations (figure 0) after all figures.
func figureRank(figure int) int {
	if figure == 0 {
		return 1 << 30
	}
	return figure
}

// panelRank presents panels in the paper's order: left (low contention)
// before right (high contention).
func panelRank(panel string) int {
	switch panel {
	case "low":
		return 0
	case "high":
		return 1
	default:
		return 2
	}
}

// paramLess orders "key=value" params naturally: equal keys with
// numeric values compare numerically ("footprint=16" < "footprint=96" <
// "footprint=128"), everything else lexically.
func paramLess(a, b string) bool {
	ka, va, oka := strings.Cut(a, "=")
	kb, vb, okb := strings.Cut(b, "=")
	if oka && okb && ka == kb {
		na, errA := strconv.Atoi(va)
		nb, errB := strconv.Atoi(vb)
		if errA == nil && errB == nil {
			return na < nb
		}
	}
	return a < b
}

// Experiments returns the distinct experiment ids in record order.
func (rep *Report) Experiments() []string {
	var ids []string
	seen := map[string]bool{}
	for _, r := range rep.Records {
		if !seen[r.Experiment] {
			seen[r.Experiment] = true
			ids = append(ids, r.Experiment)
		}
	}
	return ids
}

// ByExperiment returns the records of one experiment, in report order.
func (rep *Report) ByExperiment(id string) []Record {
	var out []Record
	for _, r := range rep.Records {
		if r.Experiment == id {
			out = append(out, r)
		}
	}
	return out
}

// WriteJSON serializes the report (indented, trailing newline).
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile serializes the report to path.
func (rep *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSON parses a report produced by WriteJSON.
func ReadJSON(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("results: decode report: %w", err)
	}
	return &rep, nil
}

// ReadFile parses a report from path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}
