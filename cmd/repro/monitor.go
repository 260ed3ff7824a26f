package main

import (
	"fmt"
	"os"
	"time"

	"sihtm/internal/report"
)

// cmdMonitor is the live terminal dashboard: it polls every node's
// /debug/timeseries and /debug/alerts on an interval and redraws
// report's live panel — throughput, abort mix, stage p99s, WAL and
// replication state, and the active alert set.
func cmdMonitor(args []string) error {
	fs := newFlags("monitor")
	var (
		interval = fs.Duration("interval", time.Second, "refresh cadence")
		window   = fs.Duration("window", 10*time.Second, "trailing window for rates and percentiles")
		once     = fs.Bool("once", false, "render a single frame and exit")
		duration = fs.Duration("duration", 0, "stop after this long (0 = until interrupted)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes, err := report.ParseNodes(fs.Args())
	if err != nil {
		return err
	}

	poll := func() []report.Frame {
		frames := make([]report.Frame, len(nodes))
		for i, n := range nodes {
			frames[i] = report.Poll(n, *window)
		}
		return frames
	}
	if *once {
		report.RenderPanel(os.Stdout, poll(), *window)
		return nil
	}

	var deadline time.Time
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	for {
		frames := poll()
		// Home the cursor and clear before each redraw so the dashboard
		// repaints in place instead of scrolling.
		fmt.Fprint(os.Stdout, "\033[H\033[2J")
		fmt.Fprintf(os.Stdout, "repro monitor — %s  (window %s, refresh %s)\n\n",
			time.Now().Format("15:04:05"), window, interval)
		report.RenderPanel(os.Stdout, frames, *window)
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
		time.Sleep(*interval)
	}
}
