package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"sihtm/internal/tm"
	"sihtm/internal/wire"
)

// ReplicaBackend is the cluster-aware remote backend: writes go to the
// leader, read-only traffic is spread round-robin over the followers'
// replayed snapshots. The routing unit is the operation class, decided
// where the op is issued:
//
//   - A read-only transaction (the ycsb-c shape) defers onto one
//     follower session and ships as one TXN — atomic on that
//     follower's snapshot at its published watermark.
//   - Any mutating op (synchronous or deferred) goes to the leader; a mixed
//     transaction therefore splits into a leader TXN (the writes, with
//     server-side RMW reading leader-fresh state) and a follower TXN
//     (the reads). Reads may then trail writes by the replication lag
//     — the stale-but-consistent snapshot semantics replica reads buy
//     their scaling with.
//
// SyncReads restores read-your-writes at a latency cost: every
// follower-bound read first waits until each follower's watermark has
// caught the leader's durable frontier. The conformance suite runs in
// that mode; throughput scenarios run without it.
type ReplicaBackend struct {
	leader    *RemoteBackend
	followers []*RemoteBackend
	next      atomic.Uint32

	// SyncReads gates follower reads on catch-up (see above).
	SyncReads bool
}

// catchupTimeout bounds one catch-up wait: a SyncReads gate or Check.
const catchupTimeout = 10 * time.Second

// DialReplica connects to a leader and its followers, with conns
// pipelined connections to each node.
func DialReplica(leaderAddr string, followerAddrs []string, conns int) (*ReplicaBackend, error) {
	if len(followerAddrs) == 0 {
		return nil, fmt.Errorf("engine: replica backend needs at least one follower")
	}
	leader, err := DialRemote(leaderAddr, conns)
	if err != nil {
		return nil, err
	}
	b := &ReplicaBackend{leader: leader}
	for _, addr := range followerAddrs {
		f, err := DialRemote(addr, conns)
		if err != nil {
			b.Close()
			return nil, err
		}
		b.followers = append(b.followers, f)
	}
	return b, nil
}

// Close tears down every node's connection pool.
func (b *ReplicaBackend) Close() error {
	first := b.leader.Close()
	for _, f := range b.followers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Name implements Backend.
func (b *ReplicaBackend) Name() string { return "replica" }

// NewSession implements Backend: a routing session over one leader
// session and one follower session (followers assigned round-robin).
func (b *ReplicaBackend) NewSession() Session {
	f := b.followers[int(b.next.Add(1)-1)%len(b.followers)]
	return &replicaSession{
		b: b,
		w: b.leader.NewSession().(*remoteSession),
		r: f.NewSession().(*remoteSession),
	}
}

// Direct implements Backend (no local heap; panics on use, same as the
// remote backend).
func (b *ReplicaBackend) Direct() tm.Ops { return remoteNoOps{} }

// Check implements Backend: the leader's structural check, then — after
// waiting for every follower to catch the leader's durable frontier —
// each follower's check over its replayed heap. A replication bug that
// corrupts a follower's structure surfaces here.
func (b *ReplicaBackend) Check() error {
	if err := b.leader.Check(); err != nil {
		return err
	}
	if err := b.WaitCatchup(catchupTimeout); err != nil {
		return err
	}
	for i, f := range b.followers {
		if err := f.Check(); err != nil {
			return fmt.Errorf("follower %d: %w", i, err)
		}
	}
	return nil
}

// LeaderSeq fetches the leader's durable frontier.
func (b *ReplicaBackend) LeaderSeq() (uint64, error) {
	st, err := b.leader.Stats()
	if err != nil {
		return 0, err
	}
	if st.Repl == nil {
		return 0, fmt.Errorf("engine: leader reports no replication state")
	}
	return st.Repl.DurableSeq, nil
}

// WaitCatchup blocks until every follower's watermark reaches the
// leader's current durable frontier (or the timeout expires).
func (b *ReplicaBackend) WaitCatchup(timeout time.Duration) error {
	target, err := b.LeaderSeq()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for _, f := range b.followers {
		for {
			st, err := f.Stats()
			if err != nil {
				return err
			}
			if st.Repl != nil && st.Repl.Watermark >= target {
				break
			}
			if time.Now().After(deadline) {
				var wm uint64
				if st.Repl != nil {
					wm = st.Repl.Watermark
				}
				return fmt.Errorf("engine: follower stuck at watermark %d, leader durable %d", wm, target)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

var _ Backend = (*ReplicaBackend)(nil)

// replicaSession routes one thread's ops: w is the leader session (all
// mutations), r the follower session (all reads).
type replicaSession struct {
	b *ReplicaBackend
	w *remoteSession
	r *remoteSession
}

// Prepare implements Session (server-side on both nodes).
func (s *replicaSession) Prepare(int) {}

// Reset implements Session.
func (s *replicaSession) Reset() {
	s.w.Reset()
	s.r.Reset()
}

// Commit implements Session: the leader's writes flush first (their
// acknowledgement pins them at or below the leader's durable frontier),
// then the follower's reads — after catch-up in SyncReads mode, so the
// read TXN observes the writes this transaction just made.
func (s *replicaSession) Commit() {
	s.w.Commit()
	if len(s.r.pending) > 0 {
		s.waitSync()
	}
	s.r.Commit()
}

// waitSync is the SyncReads gate before a follower-bound read.
func (s *replicaSession) waitSync() {
	if !s.b.SyncReads {
		return
	}
	if err := s.b.WaitCatchup(catchupTimeout); err != nil {
		panic(fmt.Sprintf("engine: replica session: %v", err))
	}
}

// Read implements Session (synchronous, follower).
func (s *replicaSession) Read(ops tm.Ops, key uint64) (uint64, bool) {
	s.waitSync()
	return s.r.Read(ops, key)
}

// Insert implements Session (synchronous, leader).
func (s *replicaSession) Insert(ops tm.Ops, key, value uint64) bool {
	return s.w.Insert(ops, key, value)
}

// Delete implements Session (synchronous, leader).
func (s *replicaSession) Delete(ops tm.Ops, key uint64) bool {
	return s.w.Delete(ops, key)
}

// Scan implements Session (synchronous, follower).
func (s *replicaSession) Scan(ops tm.Ops, key uint64, n int) int {
	s.waitSync()
	return s.r.Scan(ops, key, n)
}

// Defer implements Deferrer: read-only ops go to the follower, every
// other op to the leader (an RMW's dependent write must read
// leader-fresh state).
func (s *replicaSession) Defer(op wire.Op) {
	if op.Kind.ReadOnly() {
		s.r.Defer(op)
	} else {
		s.w.Defer(op)
	}
}

var _ Deferrer = (*replicaSession)(nil)
