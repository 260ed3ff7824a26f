package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sihtm/internal/trace"
)

// cmdTrace merges span rings from a whole cluster into one Chrome
// trace_event document: each source is a node's /debug/traces endpoint
// (or a saved JSONL file), each node becomes a process in the viewer,
// and every trace id groups its spans — client round trip, server
// stages, fsync, follower replay — onto one timeline row. Load the
// output in chrome://tracing or https://ui.perfetto.dev.
func cmdTrace(args []string) error {
	fs := newFlags("trace")
	var (
		out    = fs.String("out", "trace.json", "Chrome trace_event output path ('-' = stdout)")
		filter = fs.String("trace", "", "restrict to one trace id (decimal, as printed in span JSONL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	srcs := fs.Args()
	if len(srcs) == 0 {
		return fmt.Errorf("trace needs sources: NODE=URL-or-FILE ... " +
			"(e.g. leader=http://127.0.0.1:9464/debug/traces follower-0=spans.jsonl)")
	}
	var filterID uint64
	if *filter != "" {
		id, err := strconv.ParseUint(*filter, 10, 64)
		if err != nil {
			return fmt.Errorf("bad --trace id %q: %v", *filter, err)
		}
		filterID = id
	}

	// Fetch every source, keeping the command-line order for the viewer's
	// process list. A span line that already carries a node label (a
	// previously merged file) keeps it; fresh endpoint output takes the
	// source's label.
	byNode := map[string][]trace.Span{}
	var order []string
	note := func(node string, s trace.Span) {
		if filterID != 0 && s.Trace != filterID {
			return
		}
		if _, ok := byNode[node]; !ok {
			order = append(order, node)
		}
		byNode[node] = append(byNode[node], s)
	}
	traces := map[uint64]bool{}
	for i, src := range srcs {
		node := fmt.Sprintf("node-%d", i)
		if name, rest, ok := strings.Cut(src, "="); ok && name != "" && !strings.HasPrefix(src, "http") {
			node, src = name, rest
		}
		body, err := fetchSpans(src)
		if err != nil {
			return fmt.Errorf("%s: %w", node, err)
		}
		spans, nodes, err := trace.ReadJSONL(strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: %w", node, err)
		}
		for j, s := range spans {
			label := node
			if nodes[j] != "" {
				label = nodes[j]
			}
			note(label, s)
			if s.Trace != 0 {
				traces[s.Trace] = true
			}
		}
	}

	var merged []trace.NodeSpans
	total := 0
	for _, node := range order {
		merged = append(merged, trace.NodeSpans{Node: node, Spans: byNode[node]})
		total += len(byNode[node])
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteChromeTrace(w, merged); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d traces, %d nodes)\n", *out, total, len(traces), len(merged))
	}
	return nil
}

// fetchSpans reads one source: an http(s) URL is GET (a /debug/traces
// endpoint), anything else a JSONL file on disk.
func fetchSpans(src string) (string, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		cl := &http.Client{Timeout: 10 * time.Second}
		resp, err := cl.Get(src)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d (%s)", src, resp.StatusCode, strings.TrimSpace(string(b)))
		}
		return string(b), nil
	}
	b, err := os.ReadFile(src)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
