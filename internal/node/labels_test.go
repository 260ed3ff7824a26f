package node

import (
	"bytes"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"sihtm/internal/trace"
	"sihtm/internal/workload/ycsb"
)

// stageEntries maps the entry function of each long-lived serving
// goroutine to the stage label it must carry. A reader that a TReplSub
// hijacked runs Publisher.Stream, so Stream is looked for first.
var stageEntries = []struct{ fn, stage string }{
	{"sihtm/internal/replica.(*Publisher).Stream", trace.StagePublisher},
	{"sihtm/internal/server.(*srvConn).readLoop", trace.StageReader},
	{"sihtm/internal/server.(*srvConn).writeLoop", trace.StageWriter},
	{"sihtm/internal/server.(*shard).run", trace.StageExecutor},
	{"sihtm/internal/wal.(*Log).daemon", trace.StageWAL},
	{"sihtm/internal/replica.(*Follower).run", trace.StageApply},
	{"sihtm/internal/node.startCheckpointer.func1", trace.StageCheckpoint},
	{"sihtm/internal/tsdb.(*Store).run", trace.StageScrape},
}

var labelsLine = regexp.MustCompile(`^# labels: \{"role":"(\w+)", "stage":"(\w+)"\}$`)

// TestServingGoroutinesCarryStageLabels takes a goroutine profile of a
// loaded durable leader with one follower, each with its observability
// plane and clients on both, and finds every serving goroutine labelled
// with its stage and its node's role.
func TestServingGoroutinesCarryStageLabels(t *testing.T) {
	lcfg := durableConfig(t.TempDir())
	lcfg.MetricsAddr = "127.0.0.1:0"
	lcfg.CkptEvery = 20 * time.Millisecond
	leader := mustStart(t, lcfg)
	fcfg := following(config(), leader)
	fcfg.MetricsAddr = "127.0.0.1:0"
	fol := mustStart(t, fcfg)

	driveYCSB(t, dial(t, leader), ycsb.A, "si-htm", 2)
	driveYCSB(t, dial(t, fol), ycsb.C, "si-htm", 2)
	waitFor(t, "the follower to apply the leader's records", func() bool {
		return fol.Follower.Watermark() >= 64 && fol.Srv.Snapshot().Stats.Commits >= 16
	})

	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{} // "stage/role"
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		want := ""
		for _, e := range stageEntries {
			if strings.Contains(rec, "\t"+e.fn+"+") {
				want = e.stage
				break
			}
		}
		if want == "" {
			continue
		}
		role, stage := "", ""
		for _, line := range strings.Split(rec, "\n") {
			if m := labelsLine.FindStringSubmatch(line); m != nil {
				role, stage = m[1], m[2]
			}
		}
		if stage != want || (role != trace.RoleLeader && role != trace.RoleFollower) {
			t.Errorf("a %s goroutine is labelled stage=%q role=%q:\n%s", want, stage, role, rec)
			continue
		}
		found[stage+"/"+role] = true
	}
	wantPairs := []string{
		"reader/leader", "executor/leader", "writer/leader", "wal/leader",
		"publisher/leader", "checkpoint/leader", "scrape/leader",
		"reader/follower", "executor/follower", "writer/follower",
		"apply/follower", "scrape/follower",
	}
	var missing []string
	for _, p := range wantPairs {
		if !found[p] {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 || len(found) != len(wantPairs) {
		var got []string
		for p := range found {
			got = append(got, p)
		}
		sort.Strings(got)
		t.Fatalf("labelled stages %v; missing %v", got, missing)
	}
}
