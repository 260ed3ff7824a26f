package trace

import (
	"context"
	"runtime/pprof"
)

// Goroutine stage labels. Every long-lived goroutine of a serving node
// labels itself once, at its entry, with the pipeline stage it runs and
// the role of its node, so one CPU or goroutine profile splits by stage:
//
//	go tool pprof -tags cpu.pprof        # CPU per stage and role
//	go tool pprof -tagfocus=stage=writer cpu.pprof
//
// A goroutine it starts inherits the labels until it sets its own.
const (
	StageReader     = "reader"     // a connection's frame reader
	StageExecutor   = "executor"   // a shard executor (System.Atomic)
	StageWriter     = "writer"     // a connection's reply writer
	StageWAL        = "wal"        // the log's group-commit flusher
	StagePublisher  = "publisher"  // a replication stream to one follower
	StageApply      = "apply"      // a follower's stream applier
	StageCheckpoint = "checkpoint" // the periodic fuzzy checkpointer
	StageScrape     = "scrape"     // the observability plane's self-scrape

	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// StageLabels is the label set of one stage on a node of one role, as a
// context for pprof.SetGoroutineLabels or pprof.Do. Build it once for a
// goroutine that is started per connection: setting a prepared context
// allocates nothing.
func StageLabels(stage, role string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("stage", stage, "role", role))
}

// LabelGoroutine labels the calling goroutine with its stage and role.
func LabelGoroutine(stage, role string) {
	pprof.SetGoroutineLabels(StageLabels(stage, role))
}
