package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/harness"
	"sihtm/internal/netchaos"
	"sihtm/internal/results"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/ycsb"
)

// The repl scenario entries measure the replicated cluster: a durable
// leader streaming its WAL to snapshot read replicas, and the failover
// path that promotes a replica after the leader dies. Both entries run
// the whole cluster in-process over loopback so `repro run` covers the
// layer hermetically; the CI failover-smoke job exercises the same
// protocol across real processes with a real SIGKILL.
//
//   - repl-ycsb-c: a write stream holds the leader at its YCSB-A mix
//     while a read-only YCSB-C-shaped client population drives the
//     followers' replayed snapshots through the routing ReplicaBackend.
//     Read throughput is measured against the follower count; the
//     leader's server-side p50/p99 rides along so replica fan-out can
//     be checked against net-ycsb-a for write-path interference.
//   - repl-failover: followers stream through seeded chaos dialers
//     (cuts, torn frames, partition windows) so they trail the leader;
//     the leader is then abandoned mid-history and a follower is
//     promoted over the wire. The promotion must catch up from the
//     leader's on-disk log to at least the durable frontier at the
//     kill point — zero acknowledged loss — with the promoted heap
//     digest-identical to the leader's, after which the promoted node
//     must admit writes.

// replReadThreads is the read-side client population of repl-ycsb-c,
// and replWriteThreads the concurrent write stream held at the leader
// (both capped by the scale).
const (
	replReadThreads  = 8
	replWriteThreads = 2
)

// replFollowerLadder is the x-axis of repl-ycsb-c: the replica count.
var replFollowerLadder = []int{1, 2, 3}

// replReadTimeout is the followers' stream-liveness bound: any read
// quieter than this (the leader heartbeats far more often) is treated
// as a dead leader and triggers reconnect-and-resume.
const replReadTimeout = 250 * time.Millisecond

// replSpec is the cluster of the repl cells: a durable leader (group
// commit, no periodic checkpoints) streaming to the given number of
// followers.
func replSpec(system string, threads, followers int, chaos *netchaos.Config) clusterSpec {
	return clusterSpec{
		y: ycsbA, system: system, threads: threads,
		durable: true, followers: followers, chaos: chaos,
	}
}

// runWorkers drives mk-built workers until stop is requested, returning
// the stopper (which quiesces before returning — required before any
// connection teardown, since the session protocol panics on transport
// failure).
func runWorkers(threads int, mk func(int) func()) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			op := mk(id)
			for !halt.Load() {
				op()
			}
		}(id)
	}
	return func() { halt.Store(true); wg.Wait() }
}

// replVerify checks the cluster after a point: every follower caught up
// to the leader's durable frontier must hold a word-identical heap and
// pass the workload's structural/population invariants. Followers are
// stopped first so the comparison does not race the applier; the
// cluster is then shut down, so a node whose listener failed during the
// point fails it.
func (c *cluster) replVerify(rb *engine.ReplicaBackend) error {
	if err := rb.WaitCatchup(10 * time.Second); err != nil {
		return err
	}
	if err := rb.Check(); err != nil {
		return err
	}
	for i, f := range c.followers {
		f.node.Follower.Stop()
		if err := compareHeaps(c.leader.heap(), f.heap()); err != nil {
			return fmt.Errorf("follower %d diverged: %w", i, err)
		}
		if err := f.built.check(); err != nil {
			return fmt.Errorf("follower %d: %w", i, err)
		}
	}
	if err := c.leader.built.check(); err != nil {
		return err
	}
	return c.shutdown()
}

// runReplReadPoint measures one (system × follower count) cell of
// repl-ycsb-c: read throughput over the replicas while a write stream
// holds the leader, plus the leader's service-latency percentiles.
func runReplReadPoint(e Entry, system string, sc Scale, followers int) (results.Record, error) {
	fail := func(err error) (results.Record, error) { return results.Record{}, err }
	y := ycsbA
	readers, writers := sc.cap(replReadThreads), sc.cap(replWriteThreads)
	c, err := startCluster(replSpec(system, readers, followers, nil), sc)
	if err != nil {
		return fail(err)
	}
	defer c.close()

	// Write stream: the leader's own YCSB-A mix over a plain remote
	// backend (acks ride group-commit fsyncs, records stream out).
	wb, err := dialClient(c.addr(), y, sc, system, writers)
	if err != nil {
		return fail(err)
	}
	defer wb.Close()

	// Read population: a read-only YCSB-C-shaped mix over the same
	// keyspace, routed to the followers by the replica backend (stale
	// snapshot reads: SyncReads off).
	rspec, err := ycsb.Spec(ycsb.Config{
		Workload: ycsb.C,
		Keys:     c.keys,
		OpsPerTx: y.opsPerTx,
		Seed:     uint64(readers)*19 + 5,
	})
	if err != nil {
		return fail(err)
	}
	rb, err := engine.DialReplica(c.addr(), c.followerAddrs(), (readers+1)/2)
	if err != nil {
		return fail(err)
	}
	defer rb.Close()
	rd, err := engine.New(rspec, rb)
	if err != nil {
		return fail(err)
	}
	rsys := engine.NewRemoteSystem(system, readers)

	stopW := wb.start()
	defer stopW()
	stopR := runWorkers(readers, rd.Workers(rsys))
	defer stopR()
	time.Sleep(sc.Warmup)
	sv0, err := wb.Stats()
	if err != nil {
		return fail(err)
	}
	r0 := rsys.Collector().Snapshot()
	start := time.Now()
	time.Sleep(sc.Measure)
	sv1, err := wb.Stats()
	elapsed := time.Since(start)
	reads := rsys.Collector().Snapshot().Sub(r0)
	stopR()
	stopW()
	if err != nil {
		return fail(err)
	}
	hr := harness.Result{
		System: system, Threads: readers, Elapsed: elapsed, Stats: reads,
		Throughput: float64(reads.Commits) / elapsed.Seconds(),
	}
	r := e.record(fmt.Sprintf("followers=%d", followers), hr)
	r.NetExtras = latencyExtras(sv0, sv1)
	if err := c.replVerify(rb); err != nil {
		return fail(err)
	}
	return r, nil
}

// replYCSBEntry is repl-ycsb-c: read throughput against the replica
// count, leader write latency riding along.
func replYCSBEntry() Entry {
	e := Entry{
		ID:       "repl-ycsb-c",
		Title:    "Replicated reads: YCSB-C read throughput vs replica count, writes held at the leader",
		Workload: "repl",
		Systems:  []string{"si-htm", "sgl"},
		Params: fmt.Sprintf("followers=%v readers=%d writers=%d ack=fsync reads=stale-snapshot",
			replFollowerLadder, replReadThreads, replWriteThreads),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		for _, followers := range replFollowerLadder {
			r, err := runReplReadPoint(e, system, sc, followers)
			if err != nil {
				return fmt.Errorf("followers=%d: %w", followers, err)
			}
			hook(r)
		}
		return nil
	}
	return e
}

// replChaosConfig is the fault schedule the failover entry streams
// through: frequent cuts, torn frames and dial-refusal windows keep the
// followers trailing the leader, which is exactly the state a promotion
// must recover from.
var replChaosConfig = netchaos.Config{
	Seed:        131,
	CutAfterMin: 4, CutAfterMax: 60,
	TearProb:     0.25,
	PartitionMin: 1, PartitionMax: 3,
}

// runReplFailover runs one failover cell: write under chaos, abandon
// the leader, promote a follower over the wire, verify zero
// acknowledged loss and digest-exact state, then measure the promoted
// node serving writes.
func runReplFailover(e Entry, system string, sc Scale, hook func(results.Record)) error {
	writers := sc.cap(replWriteThreads * 2)
	chaos := replChaosConfig
	c, err := startCluster(replSpec(system, writers, 2, &chaos), sc)
	if err != nil {
		return err
	}
	defer c.close()

	wb, err := dialClient(c.addr(), ycsbA, sc, system, writers)
	if err != nil {
		return err
	}
	defer wb.Close()

	// Phase 1: write under chaos long enough for the schedule to cut
	// streams and open partition windows.
	window := sc.Measure
	if window < 300*time.Millisecond {
		window = 300 * time.Millisecond
	}
	hook(e.record("phase=prekill", wb.drive(window)))

	// The kill point: every acknowledged commit is at or below the
	// durable frontier (acks wait for fsync), and the on-disk log's
	// valid prefix holds all of it — that file is what a SIGKILL leaves
	// behind, and what the promotion must recover from. The leader is
	// abandoned from here on.
	killSeq := c.leader.node.Store.DurableSeq()

	promoted := c.followers[0]
	behind := killSeq - promoted.node.Follower.Watermark() // informational: chaos-induced lag at the kill
	pb, err := dialClient(promoted.node.Addr.String(), ycsbA, sc, system, writers)
	if err != nil {
		return err
	}
	defer pb.Close()
	rs, err := pb.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if rs.Role != "promoted" {
		return fmt.Errorf("promoted follower reports role %q", rs.Role)
	}
	if rs.Watermark < killSeq {
		return fmt.Errorf("ACKED LOSS: promoted watermark %d < durable frontier %d at kill", rs.Watermark, killSeq)
	}
	if err := compareHeaps(c.leader.heap(), promoted.heap()); err != nil {
		return fmt.Errorf("promoted state diverged: %w", err)
	}
	if err := promoted.built.check(); err != nil {
		return fmt.Errorf("promoted state: %w", err)
	}
	if promoted.chaos != nil && promoted.chaos.Cuts() == 0 && rs.Reconnects == 0 {
		return fmt.Errorf("chaos schedule never engaged (no cuts, no reconnects); the cell proved nothing")
	}

	// Phase 2: the promoted node must admit and serve writes.
	post := pb.drive(sc.Measure)
	if post.Stats.Commits == 0 {
		return fmt.Errorf("promoted node served no write commits")
	}
	if err := promoted.built.check(); err != nil {
		return fmt.Errorf("post-promotion state: %w", err)
	}
	hook(e.record(fmt.Sprintf("phase=postpromote lag=%d", behind), post))
	return c.shutdown()
}

// replFailoverEntry is repl-failover: kill-the-leader with chaotic
// replication streams, zero-acknowledged-loss promotion, digest-exact
// promoted state, and post-promotion write service.
func replFailoverEntry() Entry {
	e := Entry{
		ID:       "repl-failover",
		Title:    "Leader failover: chaotic WAL streams, promote a follower, zero acknowledged loss, digest-exact state",
		Workload: "repl",
		Systems:  []string{"si-htm", "sgl"},
		Params:   fmt.Sprintf("followers=2 writers=%d chaos=cuts/tears/partitions ack=fsync", replWriteThreads*2),
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		return runReplFailover(e, system, sc, hook)
	}
	return e
}

// replEntries builds the replication scenario entries in presentation
// order.
func replEntries() []Entry {
	return []Entry{replYCSBEntry(), replFailoverEntry()}
}
