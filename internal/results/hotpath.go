package results

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// BenchRecord is one hot-path microbenchmark measurement: a single
// (operation, mode, footprint) point of the simulator's per-access cost
// sweep. Unlike Record — which measures end-to-end workload throughput —
// a BenchRecord measures the software cost of one simulated operation,
// the quantity the O(1) footprint-tracking work optimises.
type BenchRecord struct {
	// Name is the benchmark's display id, e.g. "Read/HTM/lines=1024".
	Name string `json:"name"`
	// Op is the operation family: "read", "write", "commit", "abort",
	// "commit-2t", "atomic", "chase", "lookup", "rmw" or "populate".
	Op string `json:"op"`
	// Mode is the transaction flavour ("HTM", "ROT"), or "" for
	// end-to-end benchmarks that exercise a full system.
	Mode string `json:"mode,omitempty"`
	// Lines is the transaction footprint in cache lines at this point
	// (chase, lookup, rmw, populate: the size of the data set).
	Lines int `json:"lines"`
	// Iters is how many operations the measurement averaged over.
	Iters uint64 `json:"iters"`
	// NsPerOp is the mean wall time of one operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is the mean heap bytes allocated per operation.
	BytesPerOp float64 `json:"bytes_per_op"`
}

// BenchKey identifies a bench record's cell for matching between reports.
type BenchKey struct {
	Op    string
	Mode  string
	Lines int
}

// Key returns the record's comparison key.
func (r BenchRecord) Key() BenchKey { return BenchKey{Op: r.Op, Mode: r.Mode, Lines: r.Lines} }

// BenchReport is a full run of the hot-path microbenchmark suite — the
// `BENCH_hotpath.json` artifact produced by `repro bench`.
type BenchReport struct {
	// Tool identifies the producer (e.g. "cmd/repro bench").
	Tool string `json:"tool"`
	// GOMAXPROCS records the host parallelism: the commit-2t cases run
	// two goroutines and read as intended only at 2 or more, and
	// scheduling noise on the single-threaded rest depends on it too.
	GOMAXPROCS int `json:"gomaxprocs"`
	// THP is the host's transparent-huge-page mode (HostTHP): the chase
	// cases, and anything else that walks a heap larger than the TLB
	// covers, read differently under "never".
	THP string `json:"thp,omitempty"`
	// Records holds every measurement, sorted by Sort.
	Records []BenchRecord `json:"records"`
	// Baseline optionally embeds the records of a previous run (the
	// pre-optimisation numbers), so one artifact carries before/after.
	Baseline []BenchRecord `json:"baseline,omitempty"`
}

// HostTHP returns the selected word of the kernel's transparent-huge-page
// switch ("always", "madvise" or "never"), or "" where there is none
// (off linux, or a kernel built without THP).
func HostTHP() string {
	b, _ := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	_, after, _ := strings.Cut(string(b), "[")
	mode, _, _ := strings.Cut(after, "]")
	return mode
}

// Sort orders records by (op, mode, lines) so serialized reports are
// deterministic.
func (rep *BenchReport) Sort() {
	ord := func(rs []BenchRecord) {
		sort.SliceStable(rs, func(i, j int) bool {
			a, b := rs[i], rs[j]
			if a.Op != b.Op {
				return benchOpRank(a.Op) < benchOpRank(b.Op)
			}
			if a.Mode != b.Mode {
				return a.Mode < b.Mode
			}
			return a.Lines < b.Lines
		})
	}
	ord(rep.Records)
	ord(rep.Baseline)
}

// benchOps presents operations in hot-path order: the per-access
// primitives first (plain, then transactional), then whole transactions
// (committed, aborted, two threads at once), then end-to-end.
var benchOps = []string{"plain", "read", "write", "commit", "abort", "commit-2t", "atomic", "chase", "lookup", "rmw", "populate"}

// benchOpRank is op's place in benchOps; unknown operations sort last.
func benchOpRank(op string) int {
	if i := slices.Index(benchOps, op); i >= 0 {
		return i
	}
	return len(benchOps)
}

// WriteJSON serializes the report (indented, trailing newline).
func (rep *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile serializes the report to path.
func (rep *BenchReport) WriteFile(path string) error {
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

// ReadBenchFile parses a BenchReport from path.
func ReadBenchFile(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep BenchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("results: decode bench report %s: %w", path, err)
	}
	return &rep, nil
}

// WriteText renders the report as an aligned table, with a speed-up
// column when a baseline is embedded.
func (rep *BenchReport) WriteText(w io.Writer) {
	base := map[BenchKey]BenchRecord{}
	for _, r := range rep.Baseline {
		base[r.Key()] = r
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	if len(base) > 0 {
		fmt.Fprintln(tw, "BENCH\tNS/OP\tALLOCS/OP\tB/OP\tBASELINE NS/OP\tSPEEDUP")
	} else {
		fmt.Fprintln(tw, "BENCH\tNS/OP\tALLOCS/OP\tB/OP")
	}
	for _, r := range rep.Records {
		fmt.Fprintf(tw, "%s\t%.1f\t%.2f\t%.1f", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if len(base) > 0 {
			if b, ok := base[r.Key()]; ok && r.NsPerOp > 0 {
				fmt.Fprintf(tw, "\t%.1f\t%.2fx", b.NsPerOp, b.NsPerOp/r.NsPerOp)
			} else {
				fmt.Fprint(tw, "\t-\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
