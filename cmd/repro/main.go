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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "recover":
		err = cmdRecover(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "promote":
		err = cmdPromote(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "monitor":
		err = cmdMonitor(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `repro — reproduction pipeline for the SI-HTM evaluation

commands:
  list                      enumerate the experiment registry
  run                       run experiments, write JSON + markdown results
  bench                     run the hot-path microbenchmark suite (BENCH_hotpath.json)
  recover                   crash-replay a served run directory (serve --durable-dir) and check invariants
  serve                     run the networked transaction server (SIGTERM drains)
  loadgen                   drive one open-loop point against a live server, print its result line
  promote                   promote a follower after leader death (zero acked loss)
  trace                     merge /debug/traces rings into a Chrome trace_event file
  monitor                   live terminal dashboard over /debug/timeseries + /debug/alerts
  report                    post-run incident report from timeseries + alerts + traces
  compare                   compare two result files; a regression or a vanished (experiment, system) cell fails

serve flags:
  --addr=HOST:PORT          listen address (default 127.0.0.1:7654)
  --scenario=ycsb-a         hosted workload build: ycsb-a|ycsb-b|ycsb-c
  --system=si-htm           concurrency control (default si-htm)
  --scale=ci|quick|paper    workload sizing preset (default ci)
  --shards=N                executor goroutines (default 4)
  --batch=N                 admission bound: max ops per transaction (default 32)
  --admit-wait=DUR          admission grace: wait for fuller batches (default 0)
  --p99-target=DUR          adaptive admission control: steer batch/grace toward this p99 (default off)
  --durable-dir=DIR         serve durably (WAL + checkpoints + meta.json in DIR)
  --checkpoint-every=DUR    fuzzy checkpoint interval (default 1s; 0 disables)
  --follow=HOST:PORT        serve as a read replica of the durable leader at ADDR
  --leader-log=PATH         shared-storage path of the leader's wal.log (for promotion)
  --metrics-addr=HOST:PORT  observability plane: /metrics, /healthz, /readyz, /debug/pprof,
                            /debug/traces, /debug/timeseries, /debug/alerts
  --scrape-interval=DUR     tsdb self-scrape / alert evaluation cadence (default 1s)
  --trace-slow=DUR          record server-origin spans (/debug/traces) for unsampled requests slower than DUR

promote flags:
  --addr=HOST:PORT          follower address to promote (required)

trace flags + args:
  --out=FILE                Chrome trace_event output (default trace.json; '-' = stdout)
  --trace=ID                restrict to one trace id (decimal)
  NODE=URL-or-FILE ...      sources: per-node /debug/traces URLs or saved JSONL files
                            (e.g. leader=http://127.0.0.1:9464/debug/traces)

monitor flags + args:
  --interval=DUR            refresh cadence (default 1s)
  --window=DUR              rate/percentile window (default 10s)
  --once                    render a single frame and exit (no screen clearing)
  --duration=DUR            stop after DUR (default 0: run until interrupted)
  NODE=URL ...              metrics listeners to poll (e.g. leader=http://127.0.0.1:9464)

report flags + args:
  --out=FILE                markdown output (default report.md; '-' = stdout)
  --title=STR               report title (default "run")
  NODE=URL ...              metrics listeners to collect from (timeseries + alerts + traces)

loadgen flags (exits non-zero on an error reply or an empty window):
  --addr=HOST:PORT          server address (required)
  --conns=N                 connections to drive at --arrival (default 32)
  --arrival=poisson:RATE    arrival process, total ops/sec (or uniform:RATE; default poisson:20000)
  --scale=ci|quick|paper    client scale: run windows (default ci)
  --window=DUR              override the scale preset's measurement window
  --trace-every=N           stamp every n-th request with a trace id (1 = all)

recover flags:
  --dir=DIR                 run directory written by 'repro serve --durable-dir'
  --out=FILE                JSON recovery report (default BENCH_recover.json; '' = none)

bench flags:
  --time=DUR                per-case measurement budget (default 100ms)
  --sweep=1,64,...          footprint ladder in cache lines (default 1,4,16,64,256,1024,4096)
  --out=FILE                JSON results (default BENCH_hotpath.json)
  --baseline=FILE           embed a previous bench report's records as the baseline
  --quiet                   suppress per-case progress

run flags:
  --all                     run every registry entry
  --figure=N[,M]            run a figure's panels (6..10)
  --id=a,b                  entries, prefixes (ycsb, vacation) or groups
                            (figures, scenarios, ablations) — see 'repro list'
  --systems=a,b             restrict to these systems (default: all of each entry)
  --scale=ci|quick|paper    scale preset (default ci)
  --shards=N                parallel (experiment × system) cells (default GOMAXPROCS)
  --out=FILE                JSON results (default BENCH_repro.json)
  --md=FILE                 markdown tables ('-' = stdout, '' = none; default BENCH_repro.md)
  --cpuprofile=FILE         write a pprof CPU profile of the run
  --memprofile=FILE         write a pprof heap profile after the run
  --quiet                   suppress per-cell progress

compare flags (the only result comparison; check a run with it):
  --baseline=FILE           previous JSON result file (required)
  --current=FILE            fresh JSON result file (required)
  --tolerance=F             regression tolerance as a fraction (default 0.5)
  --min-commits=N           skip baseline cells with fewer commits (default 100)
`)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
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
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		all        = fs.Bool("all", false, "run every registry entry")
		figure     = fs.String("figure", "", "comma-separated figures (6..10)")
		ids        = fs.String("id", "", "comma-separated entry ids")
		systems    = fs.String("systems", "", "restrict to these systems")
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
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		budget   = fs.Duration("time", 100*time.Millisecond, "per-case measurement budget")
		sweepStr = fs.String("sweep", "", "comma-separated footprint ladder in cache lines")
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
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
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
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var (
		baseline   = fs.String("baseline", "", "baseline JSON file")
		current    = fs.String("current", "", "current JSON file")
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
