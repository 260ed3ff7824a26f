package experiments

import (
	"strings"
	"testing"
	"time"

	"sihtm/internal/results"
)

func TestConnScaleParams(t *testing.T) {
	for _, tc := range []struct {
		scale string
		rungs int
		top   int
	}{
		{"ci", 3, 512},
		{"quick", 3, 1024},
		{"paper", 3, 10240},
	} {
		sc, err := ScaleByName(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		ladder, perConn, target := connScaleParams(sc.withDefaults())
		if len(ladder) != tc.rungs || ladder[len(ladder)-1] != tc.top {
			t.Fatalf("%s ladder = %v", tc.scale, ladder)
		}
		if perConn <= 0 || target <= 0 {
			t.Fatalf("%s rate=%v target=%v", tc.scale, perConn, target)
		}
	}
}

func TestConnScaleCtrlInterval(t *testing.T) {
	if iv := connScaleCtrlInterval(Scale{Measure: 64 * time.Millisecond}); iv != 4*time.Millisecond {
		t.Fatalf("64ms window -> %v", iv)
	}
	if iv := connScaleCtrlInterval(Scale{Measure: 4 * time.Millisecond}); iv != 2*time.Millisecond {
		t.Fatalf("4ms window -> %v (floor)", iv)
	}
	if iv := connScaleCtrlInterval(Scale{Measure: 400 * time.Millisecond}); iv != 10*time.Millisecond {
		t.Fatalf("400ms window -> %v (cap)", iv)
	}
}

func TestConnScaleWindows(t *testing.T) {
	sc := connScaleWindows(Scale{Warmup: 10 * time.Millisecond, Measure: 40 * time.Millisecond})
	if sc.Warmup != 100*time.Millisecond || sc.Measure != 400*time.Millisecond {
		t.Fatalf("ci windows not floored: %+v", sc)
	}
	sc = connScaleWindows(Scale{Warmup: 150 * time.Millisecond, Measure: 600 * time.Millisecond})
	if sc.Warmup != 150*time.Millisecond || sc.Measure != 600*time.Millisecond {
		t.Fatalf("paper windows must pass through: %+v", sc)
	}
}

// TestConnScaleCell runs the whole net-connscale cell at ci scale: a
// self-hosted server, the open-loop ladder with the controller off and
// on at every rung, and the post-run population check. Asserts the
// record shape the BENCH pipeline depends on.
func TestConnScaleCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cell")
	}
	sc, err := ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	e := connScaleEntry()
	recs, err := e.RunCell("si-htm", sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ladder, _, target := connScaleParams(sc.withDefaults())
	if want := 2 * len(ladder); len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	ctrlOn := 0
	for _, r := range recs {
		if r.Experiment != "net-connscale" || r.Workload != "net" {
			t.Fatalf("registry coordinates wrong: %+v", r)
		}
		if r.Threads <= 0 || r.Commits == 0 || r.Throughput <= 0 {
			t.Fatalf("empty measurement: %+v", r)
		}
		if r.LatencyP99Us <= 0 || r.LatencyP50Us <= 0 {
			t.Fatalf("missing CO-safe latency: %+v", r)
		}
		if r.CtrlBatchMax <= 0 {
			t.Fatalf("missing admission knobs: %+v", r)
		}
		if strings.HasSuffix(r.System, "+ctrl") {
			ctrlOn++
			if r.CtrlP99TargetUs != int(target/time.Microsecond) {
				t.Fatalf("controlled record reports target %dµs, want %dµs", r.CtrlP99TargetUs, int(target/time.Microsecond))
			}
		} else if r.CtrlP99TargetUs != 0 {
			t.Fatalf("uncontrolled record reports a p99 target: %+v", r)
		}
	}
	if ctrlOn != len(ladder) {
		t.Fatalf("%d controlled records, want %d", ctrlOn, len(ladder))
	}
}

// TestConnScaleMarkdown renders the controller panel for connscale
// records (the BENCH markdown path).
func TestConnScaleMarkdown(t *testing.T) {
	recs := []results.Record{
		{Experiment: "net-connscale", System: "si-htm", Threads: 32, Throughput: 1000,
			NetExtras:  results.NetExtras{LatencyP50Us: 100, LatencyP99Us: 900},
			CtrlExtras: results.CtrlExtras{CtrlBatchMax: 256, CtrlAdmitWaitUs: 1000}},
		{Experiment: "net-connscale", System: "si-htm+ctrl", Threads: 32, Throughput: 1100,
			NetExtras:  results.NetExtras{LatencyP50Us: 80, LatencyP99Us: 500},
			CtrlExtras: results.CtrlExtras{CtrlBatchMax: 16, CtrlAdmitWaitUs: 40, CtrlP99TargetUs: 5000}},
	}
	var b strings.Builder
	results.MarkdownController(&b, "net-connscale", recs)
	out := b.String()
	for _, want := range []string{"256 / 1000 / off", "16 / 40 / 5000", "si-htm+ctrl"} {
		if !strings.Contains(out, want) {
			t.Fatalf("controller panel missing %q:\n%s", want, out)
		}
	}
}
