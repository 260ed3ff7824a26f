// Command repro is the one-command reproduction pipeline: it enumerates
// the experiment registry (the paper's Figures 6–10 plus this
// reproduction's ablations), runs any subset of it across all systems —
// independent (experiment × system) cells execute in parallel worker
// shards — and emits machine-readable results (BENCH_repro.json) plus
// markdown tables ready to embed in docs. Comparing two result files is
// `repro compare`'s job alone.
//
// Usage:
//
//	repro list                               # every registry entry, no runs
//	repro run --all --scale=ci               # smoke-run everything
//	repro run --figure=6 --scale=quick       # both panels of Figure 6
//	repro run --id=fig9-low,capacity         # explicit entries
//	repro compare --baseline=a.json --current=b.json   # regression check
//	repro serve -h                           # any command's flags
//
// Scales: ci (seconds, smoke), quick (minutes), paper (the full ladder
// to 80 threads; hours). The simulator's absolute throughput depends on
// the host — shape, not numbers, is the reproduction target (see
// docs/experiments.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/experiments"
	"sihtm/internal/hotbench"
	"sihtm/internal/results"
)

// command is one subcommand. The table drives both the dispatch and the
// top-level help; a command's flags are documented by its own FlagSet
// (newFlags), which prints them for 'repro CMD -h'.
type command struct {
	name    string
	args    string // positional arguments after the flags, if any
	summary string
	run     func(args []string) error
}

func commands() []command {
	return []command{
		{"list", "", "enumerate the experiment registry", cmdList},
		{"run", "", "run experiments, write JSON + markdown results", cmdRun},
		{"bench", "", "run the hot-path microbenchmark suite (BENCH_hotpath.json)", cmdBench},
		{"recover", "", "crash-replay a served run directory (serve --durable-dir) and check invariants", cmdRecover},
		{"serve", "", "run the networked transaction server (SIGTERM drains)", cmdServe},
		{"loadgen", "", "drive one open-loop point against a live server, print its result line (exit 1 on an error reply or an empty window)", cmdLoadgen},
		{"promote", "", "promote a follower after leader death (zero acked loss)", cmdPromote},
		{"trace", "NODE=URL-or-FILE ... (e.g. leader=http://127.0.0.1:9464/debug/traces)", "merge /debug/traces rings (URLs or saved JSONL files) into a Chrome trace_event file", cmdTrace},
		{"monitor", "NODE=URL ... (metrics listeners, e.g. leader=http://127.0.0.1:9464)", "live terminal dashboard over /debug/timeseries + /debug/alerts", cmdMonitor},
		{"report", "NODE=URL ... (metrics listeners)", "post-run incident report from timeseries + alerts + traces", cmdReport},
		{"compare", "", "compare two result files; a regression or a vanished (experiment, system) cell fails", cmdCompare},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "-h", "--help", "help":
		usage()
		return
	}
	for _, c := range commands() {
		if c.name == os.Args[1] {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "repro: unknown command %q\n\n", os.Args[1])
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprint(os.Stderr, "repro — reproduction pipeline for the SI-HTM evaluation\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprint(os.Stderr, "\n'repro CMD -h' lists a command's flags.\n")
}

// newFlags is command name's FlagSet: its -h prints the command's line
// and summary from the table, then every flag the command defines.
func newFlags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		for _, c := range commands() {
			if c.name == name {
				line := strings.TrimSpace("usage: repro " + name + " [flags] " + c.args)
				fmt.Fprintf(fs.Output(), "%s\n\n%s\n\nflags:\n", line, c.summary)
			}
		}
		fs.PrintDefaults()
	}
	return fs
}

func cmdList(args []string) error {
	fs := newFlags("list")
	figure := fs.Int("figure", 0, "only this figure's entries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries := experiments.Registry()
	fmt.Printf("%-18s %-10s %-6s %-9s %-28s %s\n", "ID", "GROUP", "FIGURE", "WORKLOAD", "SYSTEMS", "PARAMS")
	for _, e := range entries {
		if *figure != 0 && e.Figure != *figure {
			continue
		}
		fig := "-"
		if e.Figure > 0 {
			fig = fmt.Sprintf("%d/%s", e.Figure, e.Panel)
		}
		fmt.Printf("%-18s %-10s %-6s %-9s %-28s %s\n", e.ID, e.Group(), fig, e.Workload, strings.Join(e.Systems, ","), e.Params)
		if len(e.ThreadLadder) > 0 {
			fmt.Printf("%-18s %-10s %-6s %-9s thread ladder %v\n", "", "", "", "", e.ThreadLadder)
		}
	}
	fmt.Printf("\n%d entries; selector groups: %s; scales: %s\n",
		len(entries), strings.Join(experiments.Groups(), ", "), strings.Join(experiments.ScaleNames(), ", "))
	return nil
}

// cell is one independently runnable (experiment × system) unit.
type cell struct {
	entry  experiments.Entry
	system string
}

func cmdRun(args []string) error {
	fs := newFlags("run")
	var (
		all        = fs.Bool("all", false, "run every registry entry")
		figure     = fs.String("figure", "", "comma-separated figures (6..10)")
		ids        = fs.String("id", "", "comma-separated entries, prefixes (ycsb, vacation) or groups (figures, scenarios, ablations); see 'repro list'")
		systems    = fs.String("systems", "", "restrict to these systems (comma-separated; default: all of each entry)")
		scaleName  = fs.String("scale", "ci", "scale preset: "+strings.Join(experiments.ScaleNames(), "|"))
		shards     = fs.Int("shards", runtime.GOMAXPROCS(0), "parallel cells")
		out        = fs.String("out", "BENCH_repro.json", "JSON output path")
		md         = fs.String("md", "BENCH_repro.md", "markdown output path ('-' = stdout, '' = none)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile after the run")
		quiet      = fs.Bool("quiet", false, "suppress per-cell progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "repro: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "repro: memprofile:", err)
			}
			f.Close()
		}()
	}

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}

	var selectors []string
	if *all {
		selectors = append(selectors, "all")
	}
	if *figure != "" {
		selectors = append(selectors, strings.Split(*figure, ",")...)
	}
	if *ids != "" {
		selectors = append(selectors, strings.Split(*ids, ",")...)
	}
	if len(selectors) == 0 {
		return fmt.Errorf("nothing selected: pass --all, --figure or --id (see 'repro list')")
	}
	entries, err := experiments.Select(strings.Join(selectors, ","))
	if err != nil {
		return fmt.Errorf("%w (see 'repro list')", err)
	}

	restrict := map[string]bool{}
	for _, s := range strings.Split(*systems, ",") {
		if s = strings.TrimSpace(s); s != "" {
			restrict[s] = true
		}
	}

	var cells []cell
	for _, e := range entries {
		for _, s := range e.Systems {
			if len(restrict) > 0 && !restrict[s] {
				continue
			}
			cells = append(cells, cell{entry: e, system: s})
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("selection yields no (experiment × system) cells")
	}

	rep, runErr := runCells(cells, sc, *scaleName, *shards, *quiet)
	if runErr != nil && len(rep.Records) == 0 {
		return runErr
	}

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		partial := ""
		if rep.Partial {
			partial = ", PARTIAL"
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records%s)\n", *out, len(rep.Records), partial)
	}
	switch *md {
	case "":
	case "-":
		results.MarkdownReport(os.Stdout, rep, experiments.Titles())
	default:
		f, err := os.Create(*md)
		if err != nil {
			return err
		}
		results.MarkdownReport(f, rep, experiments.Titles())
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *md)
	}

	if runErr != nil {
		return fmt.Errorf("run aborted after %d record(s): %w", len(rep.Records), runErr)
	}
	return nil
}

// runCells executes the cells in a shard pool and assembles the report.
// On a cell failure it stops dispatching further cells (in-flight cells
// finish) and returns the records gathered so far in a report marked
// Partial, together with the first error.
func runCells(cells []cell, sc experiments.Scale, scaleName string, shards int, quiet bool) (*results.Report, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > len(cells) {
		shards = len(cells)
	}

	var (
		mu      sync.Mutex
		recs    []results.Record
		firstEC error
		done    int
		failed  atomic.Bool
	)
	work := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				rs, err := c.entry.RunCell(c.system, sc, nil)
				mu.Lock()
				if err != nil {
					if firstEC == nil {
						firstEC = err
					}
					failed.Store(true)
				} else {
					recs = append(recs, rs...)
				}
				done++
				if !quiet {
					status := "ok"
					if err != nil {
						status = "FAILED: " + err.Error()
					}
					fmt.Fprintf(os.Stderr, "[%3d/%3d] %-11s %-13s %s\n", done, len(cells), c.entry.ID, c.system, status)
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		if failed.Load() {
			break
		}
		work <- c
	}
	close(work)
	wg.Wait()

	rep := &results.Report{
		Tool:       "cmd/repro",
		Scale:      scaleName,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     shards,
		Machine:    experiments.MachineDescription(),
		Partial:    firstEC != nil,
		Records:    recs,
	}
	rep.Sort()
	return rep, firstEC
}

// cmdBench runs the hot-path microbenchmark suite (internal/hotbench)
// and writes BENCH_hotpath.json. With --baseline, a previous report's
// records are embedded so one artifact carries before/after numbers and
// the printed table gains a speed-up column.
func cmdBench(args []string) error {
	fs := newFlags("bench")
	var (
		budget   = fs.Duration("time", 100*time.Millisecond, "per-case measurement budget")
		sweepStr = fs.String("sweep", "", "comma-separated footprint ladder in cache lines (default 1,4,16,64,256,1024,4096)")
		out      = fs.String("out", "BENCH_hotpath.json", "JSON output path")
		baseline = fs.String("baseline", "", "previous bench report to embed as baseline")
		quiet    = fs.Bool("quiet", false, "suppress per-case progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sweep := hotbench.DefaultSweep
	if *sweepStr != "" {
		sweep = nil
		for _, s := range strings.Split(*sweepStr, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad --sweep entry %q", s)
			}
			sweep = append(sweep, n)
		}
	}

	rep := &results.BenchReport{
		Tool:       "cmd/repro bench",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		THP:        results.HostTHP(),
	}
	if *baseline != "" {
		base, err := results.ReadBenchFile(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		rep.Baseline = base.Records
	}

	total := len(hotbench.Cases(sweep))
	done := 0
	rep.Records = hotbench.RunAll(sweep, *budget, func(r results.BenchRecord) {
		done++
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-22s %12.1f ns/op %8.2f allocs/op\n",
				done, total, r.Name, r.NsPerOp, r.AllocsPerOp)
		}
	})
	rep.Sort()

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *out, len(rep.Records))
	}
	rep.WriteText(os.Stdout)
	return nil
}

// cmdRecover crash-replays a served run directory: rebuild the served
// base, restore checkpoint + log, verify invariants, and write the
// recovery report.
func cmdRecover(args []string) error {
	fs := newFlags("recover")
	var (
		dir = fs.String("dir", "", "run directory written by 'repro serve --durable-dir' (required)")
		out = fs.String("out", "BENCH_recover.json", "JSON recovery report ('' = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("recover needs --dir")
	}
	rep, rerr := experiments.RecoverDurable(*dir)
	if *out != "" {
		j, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(j, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if rerr != nil {
		return rerr
	}
	fmt.Printf("recovery OK: %s\n", rep.Detail)
	return nil
}

func cmdCompare(args []string) error {
	fs := newFlags("compare")
	var (
		baseline   = fs.String("baseline", "", "baseline JSON result file (required)")
		current    = fs.String("current", "", "current JSON result file (required)")
		tolerance  = fs.Float64("tolerance", 0.5, "regression tolerance fraction")
		minCommits = fs.Uint64("min-commits", 100, "skip baseline cells with fewer commits (noise)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline == "" || *current == "" {
		return fmt.Errorf("compare needs --baseline and --current")
	}
	base, err := results.ReadFile(*baseline)
	if err != nil {
		return err
	}
	cur, err := results.ReadFile(*current)
	if err != nil {
		return err
	}
	c := results.Compare(base, cur, *tolerance, *minCommits)
	c.WriteText(os.Stdout)
	if len(c.MissingPairs) > 0 {
		return fmt.Errorf("%d baseline (experiment, system) pair(s) have no record in current: %v", len(c.MissingPairs), c.MissingPairs)
	}
	if len(c.Regressions) > 0 {
		return fmt.Errorf("%d throughput regression(s)", len(c.Regressions))
	}
	return nil
}
