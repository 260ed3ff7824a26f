package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the tables in metrics.go and workload.go say the
// same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !slices.Equal(b.Command, []string{"go", "run", "./bench"}) || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, the program has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the program", len(b.EndToEnd), len(gated))
	}
	for i, m := range b.EndToEnd {
		d := gated[i]
		if m.Bound == nil || m.Name != d.name || m.Unit != d.unit || m.Better != d.better || *m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, the program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Bound != nil || m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, the program has %+v", i, m, d)
		}
	}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// driveWorkload runs one workload through execute with every duration
// shrunk (a 1 s run: 25 ms slices in process, 12.5 ms over the network)
// and returns its printed metric lines by name and its result line.
func driveWorkload(t *testing.T, w *workload, trace bool) (map[string][]string, resultLine) {
	t.Helper()
	o := options{seed: 7, seconds: 1, trace: trace, setupReps: 2, detTransactions: 2000, scratch: filepath.Join(t.TempDir(), "out")}
	var stdout, stderr bytes.Buffer
	if code := execute([]*workload{w}, o, "", &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%t: exit %d\n%s%s", w.name, trace, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	printed := map[string][]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == w.name {
			printed[f[1]] = append(printed[f[1]], f[3])
		}
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", w.name, err, lines[len(lines)-1])
	}
	return printed, res
}

// Every workload runs, passes its checks, prints every metric of
// BENCHMARK.json exactly once with its unit, and ends on a result line
// holding exactly the run's kind of metrics.
func TestEveryWorkloadPrintsEveryMetricOnce(t *testing.T) {
	if runtime.NumCPU() < loadThreads {
		t.Skipf("undersized host: %d cores", runtime.NumCPU())
	}
	b := readBenchmarkJSON(t)
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			printed, res := driveWorkload(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: result line has %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if units := printed[m.Name]; len(units) != 1 || units[0] != m.Unit {
					t.Errorf("%s trace=%t: %s printed with units %v, want once with %q", w.name, trace, m.Name, units, m.Unit)
				}
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: result line lacks %s in %s", w.name, trace, m.Name, m.Unit)
				}
			}
			if !trace {
				// The end-to-end metrics BENCHMARK.json leaves out are printed
				// all the same.
				for _, name := range []string{"lat_p99_us", "fail_frac", "cpu_us_per_tx"} {
					if len(printed[name]) != 1 {
						t.Errorf("%s: %s printed %d times", w.name, name, len(printed[name]))
					}
				}
			}
		}
	}
}

// What a run leaves behind lands in out/, and git ignores it.
func TestOutputDirectoryIsIgnored(t *testing.T) {
	if filepath.Base(scratchDir) != "out" || filepath.Dir(scratchDir) != "bench" {
		t.Fatalf("scratch directory is %q", scratchDir)
	}
	raw, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(strings.Fields(string(raw)), "out/") {
		t.Errorf("bench/.gitignore does not name out/:\n%s", raw)
	}
}

// seam.go alone imports the program.
func TestOnlyTheSeamImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if f != "seam.go" && bytes.Contains(raw, []byte(`"sihtm`+`/`)) {
			t.Errorf("%s imports the program; only seam.go may", f)
		}
	}
}

func TestTraceFlagTakesItsValueFromTheNextArgument(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "kv-update", "--seed", "3", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "kv-update", "--seed", "3", "--seconds", "20", "--trace=1"}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := joinTraceValue([]string{"--trace", "--seed", "3"}); !slices.Equal(got, []string{"--trace", "--seed", "3"}) {
		t.Errorf("bare --trace rewritten: %v", got)
	}
}
