package results

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/stats"
)

func sampleRecord(exp, system string, threads int, tput float64) Record {
	var hr harness.Result
	hr.System = system
	hr.Threads = threads
	hr.Elapsed = 250 * time.Millisecond
	hr.Throughput = tput
	hr.Stats.Commits = uint64(tput / 4)
	hr.Stats.CommitsRO = uint64(tput / 8)
	hr.Stats.Aborts[stats.AbortTransactional] = 5
	hr.Stats.Aborts[stats.AbortCapacity] = 3
	hr.Stats.Fallbacks = 1
	return FromHarness(exp, 6, "low", "hashmap", "", hr)
}

func sampleReport() *Report {
	return &Report{
		Tool:       "test",
		Scale:      "ci",
		GOMAXPROCS: 1,
		Machine:    "10 cores × SMT-8, TMCAM 64 lines",
		Records: []Record{
			sampleRecord("fig6-low", "htm", 1, 1000),
			sampleRecord("fig6-low", "htm", 2, 1500),
			sampleRecord("fig6-low", "si-htm", 1, 1200),
			sampleRecord("fig6-low", "si-htm", 2, 4000),
		},
	}
}

func TestJSONRoundTripIsLossless(t *testing.T) {
	rep := sampleReport()
	rep.Records[0].Param = "footprint=96"
	rep.Sort()

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip not lossless:\nwrote %+v\nread  %+v", rep, back)
	}
}

func TestFileRoundTrip(t *testing.T) {
	rep := sampleReport()
	path := filepath.Join(t.TempDir(), "BENCH_repro.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatal("file round trip not lossless")
	}
}

func TestSortIsDeterministic(t *testing.T) {
	rep := sampleReport()
	// Shuffle by reversing, then sort back.
	for i, j := 0, len(rep.Records)-1; i < j; i, j = i+1, j-1 {
		rep.Records[i], rep.Records[j] = rep.Records[j], rep.Records[i]
	}
	rep.Sort()
	want := []Key{
		{"fig6-low", "htm", 1, ""},
		{"fig6-low", "si-htm", 1, ""},
		{"fig6-low", "htm", 2, ""},
		{"fig6-low", "si-htm", 2, ""},
	}
	for i, k := range want {
		if rep.Records[i].Key() != k {
			t.Fatalf("record %d = %+v, want %+v", i, rep.Records[i].Key(), k)
		}
	}
}

func TestSortNaturalParamsAndAblationsLast(t *testing.T) {
	mk := func(exp string, figure int, param string) Record {
		return Record{Experiment: exp, Figure: figure, System: "htm", Threads: 1, Param: param}
	}
	rep := &Report{Records: []Record{
		mk("capacity", 0, "footprint=128"),
		mk("capacity", 0, "footprint=16"),
		mk("capacity", 0, "footprint=96"),
		mk("fig10-low", 10, ""),
		mk("fig6-low", 6, ""),
	}}
	rep.Sort()
	gotOrder := []string{}
	for _, r := range rep.Records {
		gotOrder = append(gotOrder, r.Experiment+"/"+r.Param)
	}
	want := []string{"fig6-low/", "fig10-low/", "capacity/footprint=16", "capacity/footprint=96", "capacity/footprint=128"}
	if !reflect.DeepEqual(gotOrder, want) {
		t.Fatalf("sort order = %v, want %v", gotOrder, want)
	}
}

func TestCompareFlagsSyntheticSlowdown(t *testing.T) {
	baseline := sampleReport()
	current := sampleReport()
	// Slow two cells down (3× and 10×): both must be flagged at 50%
	// tolerance, worst first.
	for i := range current.Records {
		switch {
		case current.Records[i].System == "si-htm" && current.Records[i].Threads == 2:
			current.Records[i].Throughput /= 3
		case current.Records[i].System == "htm" && current.Records[i].Threads == 1:
			current.Records[i].Throughput /= 10
		}
	}
	c := Compare(baseline, current, 0.5, 0)
	if c.Matched != 4 {
		t.Fatalf("matched %d cells, want 4", c.Matched)
	}
	if len(c.Regressions) != 2 {
		t.Fatalf("regressions = %+v, want exactly the two slowed cells", c.Regressions)
	}
	if c.Regressions[0].Key != (Key{"fig6-low", "htm", 1, ""}) {
		t.Fatalf("worst regression not first: %+v", c.Regressions)
	}
	r := c.Regressions[1]
	if r.Key != (Key{"fig6-low", "si-htm", 2, ""}) {
		t.Fatalf("flagged wrong cell: %+v", r.Key)
	}
	if r.Ratio > 0.34 || r.Ratio < 0.33 {
		t.Fatalf("ratio = %v, want ~1/3", r.Ratio)
	}

	var buf bytes.Buffer
	c.WriteText(&buf)
	if !strings.Contains(buf.String(), "si-htm/2") {
		t.Errorf("comparison text missing cell: %q", buf.String())
	}
}

func TestCompareWithinToleranceIsQuiet(t *testing.T) {
	baseline := sampleReport()
	current := sampleReport()
	for i := range current.Records {
		current.Records[i].Throughput *= 0.8 // 20% down, within 50% tolerance
	}
	c := Compare(baseline, current, 0.5, 0)
	if len(c.Regressions) != 0 {
		t.Fatalf("unexpected regressions: %+v", c.Regressions)
	}
}

func TestCompareWarnsOnMismatchedProvenance(t *testing.T) {
	baseline := sampleReport()
	current := sampleReport()
	baseline.Shards = 1
	current.Shards = 8
	current.Scale = "quick"
	c := Compare(baseline, current, 0.5, 0)
	if len(c.Warnings) != 2 {
		t.Fatalf("warnings = %v, want scale + shard mismatch", c.Warnings)
	}
	var buf bytes.Buffer
	c.WriteText(&buf)
	if !strings.Contains(buf.String(), "shard-count mismatch") || !strings.Contains(buf.String(), "scale mismatch") {
		t.Errorf("warnings not rendered: %q", buf.String())
	}
}

func TestCompareReportsMissingCells(t *testing.T) {
	baseline := sampleReport()
	current := sampleReport()
	current.Records = current.Records[:2]
	c := Compare(baseline, current, 0.5, 0)
	if c.MissingInCurrent != 2 {
		t.Fatalf("missing = %d, want 2", c.MissingInCurrent)
	}
}

// A whole (experiment, system) pair gone from the current report is a
// cell that vanished from the registry; a single param of a pair that is
// still present ("lag=17" one run, "lag=23" the next) is not.
func TestCompareNamesVanishedPairs(t *testing.T) {
	baseline := sampleReport()
	baseline.Records[3].Param = "lag=17"
	current := sampleReport()
	current.Records[3].Param = "lag=23"
	if c := Compare(baseline, current, 0.5, 0); c.MissingInCurrent != 1 || len(c.MissingPairs) != 0 {
		t.Fatalf("a differing param tripped the gate: %+v", c)
	}
	current.Records = current.Records[:2] // every si-htm record gone
	c := Compare(baseline, current, 0.5, 0)
	if len(c.MissingPairs) != 1 || c.MissingPairs[0] != "fig6-low/si-htm" {
		t.Fatalf("MissingPairs = %v, want [fig6-low/si-htm]", c.MissingPairs)
	}
}

// Record's per-cell groups are embedded structs; the committed artifact
// must decode and re-encode to the same bytes, or the schema moved.
func TestCommittedArtifactRoundTripsByteForByte(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_repro.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("BENCH_repro.json does not round-trip: %d bytes in, %d out", len(want), got.Len())
	}
}

func TestCompareSkipsNoiseCells(t *testing.T) {
	baseline := sampleReport()
	current := sampleReport()
	current.Records[0].Throughput = 1 // huge slowdown...
	c := Compare(baseline, current, 0.5, 1<<20)
	if len(c.Regressions) != 0 { // ...but baseline commits below minCommits
		t.Fatalf("noise cell flagged: %+v", c.Regressions)
	}
}

func TestMarkdownThroughputTable(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	MarkdownThroughput(&buf, "Figure 6 (left)", rep.Records)
	out := buf.String()
	for _, want := range []string{"| threads |", "| htm |", "| si-htm |", "| 1 |", "| 2 |", "4000"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown table missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownParamAxis(t *testing.T) {
	recs := []Record{
		sampleRecord("capacity", "htm", 1, 900),
		sampleRecord("capacity", "si-htm", 1, 1100),
	}
	recs[0].Param = "footprint=96"
	recs[1].Param = "footprint=96"
	var buf bytes.Buffer
	MarkdownThroughput(&buf, "A1", recs)
	out := buf.String()
	if !strings.Contains(out, "| param |") || !strings.Contains(out, "footprint=96") {
		t.Errorf("param axis not rendered:\n%s", out)
	}
}

func TestMarkdownAbortsAndReport(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	MarkdownAborts(&buf, "Figure 6 (left)", rep.Records)
	if !strings.Contains(buf.String(), "aborts") {
		t.Error("abort table missing header")
	}

	buf.Reset()
	MarkdownReport(&buf, rep, map[string]string{"fig6-low": "Figure 6 (left)"})
	out := buf.String()
	for _, want := range []string{"### Figure 6 (left)", "scale=ci", "throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAbortPercent(t *testing.T) {
	var r Record
	r.Commits = 50
	r.AbortsCapacity = 50
	if got := r.AbortPercent(r.AbortsCapacity); got != 50 {
		t.Fatalf("AbortPercent = %v, want 50", got)
	}
	var zero Record
	if got := zero.AbortPercent(0); got != 0 {
		t.Fatalf("zero-attempt AbortPercent = %v", got)
	}
}

// The bench report carries the host's THP mode beside gomaxprocs; a
// report written off linux (or before the field existed) omits it.
func TestBenchReportCarriesTHPMode(t *testing.T) {
	switch mode := HostTHP(); mode {
	case "", "always", "madvise", "never":
	default:
		t.Fatalf("HostTHP() = %q, want a THP mode or empty", mode)
	}
	var buf bytes.Buffer
	if err := (&BenchReport{Tool: "t", GOMAXPROCS: 2, THP: "madvise"}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"thp": "madvise"`) {
		t.Fatalf("thp field missing from:\n%s", buf.String())
	}
	buf.Reset()
	if err := (&BenchReport{Tool: "t", GOMAXPROCS: 2}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "thp") {
		t.Fatalf("empty thp field serialized:\n%s", buf.String())
	}
}
