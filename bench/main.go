// Command bench is the repository's benchmark: four workloads from
// in-process SI-HTM to durable replicated serving, eight end-to-end
// metrics, and a traced run that measures every layer from outside. See
// README.md beside this file.
//
//	go run ./bench [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: in process, forty
// 0.5 s slices after a 2 s warm-up; over the network, two phases of forty
// 0.25 s slices, each after a 1 s warm-up.
const defaultSeconds = 20

// A run sets its node up at least defaultSetupReps times and goes on
// until defaultSetupBudget is spent; setup_s is their quiet decile.
const (
	defaultSetupReps   = 5
	defaultSetupBudget = 2 * time.Second
)

// scratchDir, relative to the working directory `go run ./bench` is
// started from (the repository root), holds WAL files during a run and
// span files after it. bench/.gitignore names it.
var scratchDir = filepath.Join("bench", "out")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceFlag accepts --trace, --trace=1 and (after joinTraceValue)
// --trace 1.
type traceFlag bool

func (t *traceFlag) String() string   { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) IsBoolFlag() bool { return true }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// joinTraceValue rewrites "--trace 0" as "--trace=0": the flag package
// reads a boolean flag's value only from the same argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "--trace" || args[i] == "-trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, args[i]+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: kv-update, hashmap-large, net-volatile, net-durable or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	secs := fs.Float64("seconds", defaultSeconds, "seconds one workload measures")
	var trace traceFlag
	fs.Var(&trace, "trace", "run with the per-layer decorators installed and print the per-layer metrics")
	outFile := fs.String("out", "", "also write the full result as JSON to this file")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments")
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	o := options{seed: *seed, seconds: *secs, trace: bool(trace), setupReps: defaultSetupReps, setupBudget: defaultSetupBudget, detTransactions: detTransactions, scratch: scratchDir}
	return execute(todo, o, *outFile, stdout, stderr)
}

// execute runs the workloads in sequence and prints their outcomes.
func execute(todo []*workload, o options, outFile string, stdout, stderr io.Writer) int {
	host := readHostShape()
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel)
	if host.Undersized {
		// Two worker threads, two connections and two shards on one core
		// time the scheduler, not the system.
		fmt.Fprintf(stdout, "# undersized: the load needs %d cores\n", loadThreads)
		return 3
	}
	report := fullReport{Host: host}
	code := 0
	for _, w := range todo {
		out, err := runWorkload(w, o)
		if err != nil {
			out.Correct = false
			out.Error = err.Error()
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		printOutcome(stdout, out)
		report.Runs = append(report.Runs, out)
	}
	if outFile != "" {
		b, err := json.MarshalIndent(report, "", " ")
		if err == nil {
			err = os.WriteFile(outFile, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", outFile, err)
			return 1
		}
	}
	return code
}

func runWorkload(w *workload, o options) (*outcome, error) {
	if o.trace {
		return runTraced(w, o)
	}
	return runUntraced(w, o)
}

// fullReport is what --out writes.
type fullReport struct {
	Host hostShape  `json:"host"`
	Runs []*outcome `json:"runs"`
}

// printOutcome prints every metric by name with its unit, sample count
// and slice spread, then the result line the driver reads: one JSON
// object, last on standard output.
func printOutcome(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g traced=%t correct=%t\n", out.Workload, out.Seed, out.Seconds, out.Traced, out.Correct)
	for _, l := range out.Labels {
		fmt.Fprintf(w, "# %s %s\n", out.Workload, l)
	}
	if out.SpanFile != "" {
		fmt.Fprintf(w, "# %s spans written to %s\n", out.Workload, out.SpanFile)
	}
	type resultValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]resultValue `json:"metrics"`
	}{out.Correct, max(out.Attempted, 1), out.Failed, map[string]resultValue{}}
	if !out.Correct {
		// A failed check fails everything that was attempted.
		result.Failed = result.Attempted
	}
	for _, m := range out.Metrics {
		value := strconv.FormatFloat(m.Value, 'g', -1, 64)
		if m.Unresolved {
			value = "unresolved"
		}
		fmt.Fprintf(w, "%s %s %s %s", out.Workload, m.Name, value, m.Unit)
		if m.Slices > 0 {
			fmt.Fprintf(w, " slices=%d median=%g min=%g max=%g", m.Slices, m.Median, m.Min, m.Max)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " samples=%d", m.Samples)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " note=%q", m.Note)
		}
		fmt.Fprintln(w)
		if !out.Traced && !defOf(endToEnd, m.Name).gated {
			continue // printed above, not one of BENCHMARK.json's
		}
		result.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	b, _ := json.Marshal(result) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}
