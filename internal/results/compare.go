package results

import (
	"fmt"
	"io"
	"sort"
)

// Regression is one cell whose throughput fell beyond tolerance
// relative to the baseline.
type Regression struct {
	Key      Key
	Baseline float64 // baseline throughput (tx/s)
	Current  float64 // current throughput (tx/s)
	// Ratio is current/baseline (< 1-tolerance to be flagged).
	Ratio float64
}

func (r Regression) String() string {
	where := fmt.Sprintf("%s/%s/%d", r.Key.Experiment, r.Key.System, r.Key.Threads)
	if r.Key.Param != "" {
		where += "/" + r.Key.Param
	}
	return fmt.Sprintf("%s: %.0f → %.0f tx/s (%.0f%%)", where, r.Baseline, r.Current, 100*r.Ratio)
}

// Comparison summarizes a baseline-vs-current match.
type Comparison struct {
	// Matched counts cells present in both reports.
	Matched int
	// MissingInCurrent counts baseline cells the current report lacks —
	// a coverage regression, reported separately from slowdowns.
	MissingInCurrent int
	// MissingPairs lists the "experiment/system" pairs of the baseline
	// with no record at all in the current report: a cell that vanished,
	// where a single missing param ("lag=17") is run-to-run variation.
	MissingPairs []string
	// Regressions are matched cells slower than tolerance allows.
	Regressions []Regression
	// Warnings flag comparability problems (scale or shard-count
	// mismatch between the reports) that make ratios unreliable.
	Warnings []string
}

// Compare matches records cell by cell (experiment, system, threads,
// param) and flags throughput regressions: cells where current <
// baseline × (1 - tolerance). Tolerance must be generous for timed
// windows on shared CI hosts (0.5 flags only >2× slowdowns at the
// margin); cells below minCommits commits in the baseline are skipped
// as noise.
func Compare(baseline, current *Report, tolerance float64, minCommits uint64) Comparison {
	cur := make(map[Key]Record, len(current.Records))
	pairs := map[string]bool{}
	for _, r := range current.Records {
		cur[r.Key()] = r
		pairs[r.Experiment+"/"+r.System] = true
	}
	var c Comparison
	if baseline.Scale != current.Scale {
		c.Warnings = append(c.Warnings, fmt.Sprintf("scale mismatch: baseline %q vs current %q", baseline.Scale, current.Scale))
	}
	if baseline.Shards != current.Shards {
		c.Warnings = append(c.Warnings, fmt.Sprintf("shard-count mismatch: baseline %d vs current %d (timed cells contend with co-runners; ratios are unreliable)", baseline.Shards, current.Shards))
	}
	for _, b := range baseline.Records {
		now, ok := cur[b.Key()]
		if !ok {
			c.MissingInCurrent++
			if pair := b.Experiment + "/" + b.System; !pairs[pair] {
				pairs[pair] = true // report each once
				c.MissingPairs = append(c.MissingPairs, pair)
			}
			continue
		}
		c.Matched++
		if b.Commits < minCommits || b.Throughput <= 0 {
			continue
		}
		ratio := now.Throughput / b.Throughput
		if ratio < 1-tolerance {
			c.Regressions = append(c.Regressions, Regression{
				Key:      b.Key(),
				Baseline: b.Throughput,
				Current:  now.Throughput,
				Ratio:    ratio,
			})
		}
	}
	// Worst first, so truncated CI logs still show the headline.
	sort.Slice(c.Regressions, func(i, j int) bool { return c.Regressions[i].Ratio < c.Regressions[j].Ratio })
	return c
}

// WriteText renders the comparison human-readably.
func (c Comparison) WriteText(w io.Writer) {
	for _, warn := range c.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	fmt.Fprintf(w, "compared %d cells (%d baseline cells missing in current, %d whole (experiment, system) pairs: %v)\n",
		c.Matched, c.MissingInCurrent, len(c.MissingPairs), c.MissingPairs)
	if len(c.Regressions) == 0 {
		fmt.Fprintln(w, "no throughput regressions")
		return
	}
	fmt.Fprintf(w, "%d throughput regression(s):\n", len(c.Regressions))
	for _, r := range c.Regressions {
		fmt.Fprintf(w, "  %s\n", r)
	}
}
