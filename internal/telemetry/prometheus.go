package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sihtm/internal/stats"
)

// WritePrometheus renders every family in text exposition format,
// families sorted by name and series by label signature, so output is
// deterministic (golden-testable) scrape over scrape.
//
// Histograms are coarsened to one cumulative `le` bucket per octave of
// the underlying log-bucketed histogram (~38 buckets instead of 152),
// which keeps scrape payloads small while preserving the ~2x bucket
// resolution Prometheus histogram_quantile expects to work with.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		series := append([]*series(nil), f.series...)
		// Sort by signature for stable output; registration order is
		// wiring order, not a rendering contract.
		for i := 1; i < len(series); i++ {
			for j := i; j > 0 && series[j-1].sig > series[j].sig; j-- {
				series[j-1], series[j] = series[j], series[j-1]
			}
		}
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range series {
			switch f.kind {
			case KindCounter:
				v := uint64(0)
				if s.counterFn != nil {
					v = s.counterFn()
				} else {
					v = s.counter.Value()
				}
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(s.labels, ""), v)
			case KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, renderLabels(s.labels, ""), formatFloat(s.gaugeFn()))
			case KindHistogram:
				writeHistogram(bw, f, s)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative per-octave
// buckets, +Inf, _sum, and _count.
func writeHistogram(bw *bufio.Writer, f *family, s *series) {
	snap := s.hist.Snapshot()
	var cum uint64
	for slot := 0; slot < len(snap.Counts); slot++ {
		cum += snap.Counts[slot]
		_, hi := stats.HistogramBucketBounds(slot)
		// Emit at octave edges: the last sub-bucket of each octave (and
		// the final slot, whose bucket clamps everything larger).
		last := slot == len(snap.Counts)-1
		var nextLo uint64
		if !last {
			nextLo, _ = stats.HistogramBucketBounds(slot + 1)
		}
		octaveEdge := last || isPow2(nextLo)
		if !octaveEdge {
			continue
		}
		le := scaleBound(hi, f.unit)
		fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, le), cum)
	}
	fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, "+Inf"), cum)
	sum := float64(snap.SumNs)
	if f.unit == UnitSeconds {
		sum /= 1e9
	}
	fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, renderLabels(s.labels, ""), formatFloat(sum))
	fmt.Fprintf(bw, "%s_count%s %d\n", f.name, renderLabels(s.labels, ""), cum)
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// scaleBound renders a bucket upper bound in the family's unit.
func scaleBound(hiNs uint64, u Unit) string {
	if u == UnitSeconds {
		return formatFloat(float64(hiNs) / 1e9)
	}
	return formatFloat(float64(hiNs))
}

// renderLabels renders {k="v",...}, appending le when non-empty. No
// labels and no le renders as the empty string.
func renderLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips, no exponent for the common
// magnitudes our instruments produce.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
