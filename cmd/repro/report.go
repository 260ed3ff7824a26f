package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sihtm/internal/report"
)

// cmdReport builds the post-run incident report: it collects every
// node's /debug/timeseries, /debug/alerts and /debug/traces surfaces,
// joins them into the alert timeline, SLO compliance, worst-trace
// exemplars and abort attribution, and writes incident-style markdown.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	var (
		out   = fs.String("out", "report.md", "markdown output path ('-' = stdout)")
		title = fs.String("title", "run", "report title")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes, err := report.ParseNodes(fs.Args())
	if err != nil {
		return err
	}

	in := report.Inputs{Title: *title}
	for _, n := range nodes {
		nd, err := report.Collect(n)
		if err != nil {
			return fmt.Errorf("collect %s: %w", n.Name, err)
		}
		in.Nodes = append(in.Nodes, nd)
	}

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := report.Build(w, in); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d nodes)\n", *out, len(in.Nodes))
	}
	return nil
}
