// Package server is the networked service layer: a TCP server speaking
// the internal/wire protocol that fronts any engine.Backend (the
// chained hash map, the B+tree, their durable decorations) through the
// repository's tm.System seam.
//
// The interesting part is the admission/batching stage. Client
// connections are read by per-connection goroutines that route each
// request — a TXN of one or more ops — to one of a fixed set of
// per-shard executor goroutines (shard = hash of the request's first
// key, so hot keys serialize onto one executor instead of conflicting
// across all of them). An executor drains its queue opportunistically
// and coalesces the pipelined requests of many connections into a
// single transaction of at most BatchMax operations, executed as one
// System.Atomic. That is the paper's capacity argument turned into a
// serving architecture: a bigger hardware-transaction footprint per
// commit amortizes the begin/commit cost — and, with a durable store
// attached, the group-commit fsync — over more client operations,
// while pushing the transaction closer to the TMCAM capacity cliff.
// Sweeping BatchMax (one server per setting) reproduces the
// capacity-vs-abort trade-off over the network.
//
// The hand-offs around the transaction amortize the same way: a reader
// sends each shard one chain of the requests one socket read carried,
// an executor queues each connection one message holding all of its
// replies from one batch, and the writer sends a message with one
// socket write (and one ack wait on a durable server). The clock is
// read once per socket read, twice per batch and once per message.
//
// Atomicity is preserved per request: a TXN's ops always land in the
// same batch, and a batch is one transaction, so clients get at-least
// TXN-level isolation (batching only ever widens the atomic unit).
// A batch of exclusively read-only ops launches as tm.KindReadOnly and
// rides SI-HTM's uninstrumented read-only fast path.
//
// Durable serving takes the fsync off the executor. The server claims
// its shard threads on the store (durable.Store.ClaimAck), so Atomic
// returns at commit; the executor stamps the batch's tasks with the log
// position their replies depend on, encodes the replies, queues them on
// their connections and takes the next batch. Each connection's writer
// holds a stamped reply, asleep on the log's flush signal, until the
// durable frontier passes the stamp. The ordering rule: no reply leaves
// the node before DurableSeq covers the log position at which its batch
// executed. A batch that logged a record is stamped with the sequence
// its commit drew, which is above that of every commit it read from; a
// batch that logged none — a read-only one above all — may have
// observed a committed-but-not-yet-durable write, and is stamped with
// LastSeq read after Atomic returned. A volatile server and a replica
// stamp 0: their writers never wait.
//
// Graceful drain: Drain stops the accept loop, unblocks connection
// readers, lets executors finish every admitted request, syncs the log
// so no writer waits any more, flushes and closes connections, and —
// when a durable store is attached — forces a final checkpoint so a
// restart recovers without replaying the whole log.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/replica"
	"sihtm/internal/stats"
	"sihtm/internal/telemetry"
	"sihtm/internal/tm"
	"sihtm/internal/trace"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// Config assembles a Server.
type Config struct {
	// Backend is the data structure served. The caller populates it (and
	// wraps it durably) before Listen.
	Backend engine.Backend
	// System is the concurrency control executing batches; it must be
	// sized for at least Shards threads.
	System tm.System
	// Shards is the executor goroutine count (transaction thread ids
	// 0..Shards-1). Default 4.
	Shards int
	// BatchMax bounds the operations coalesced into one transaction —
	// the footprint knob. 0 means 16; otherwise 1..wire.MaxTxnOps.
	BatchMax int
	// AdmitWait is the admission grace period: how long an executor
	// holding a non-full batch waits for more pipelined requests before
	// committing. Zero (the default) commits as soon as the queue runs
	// dry; small values trade per-op latency for fuller batches (and,
	// durably, fuller group commits). At most one second.
	AdmitWait time.Duration
	// P99Target, when positive, starts the adaptive admission controller
	// at Listen: a control loop that owns BatchMax and AdmitWait online,
	// growing batches while the server-side p99 service latency holds
	// under the target and the capacity-abort share stays low, shrinking
	// them when either budget is blown. Drain stops it. At most 60 s.
	//
	// The three admission knobs are set here once: New refuses a value
	// outside its range, and nothing changes them later but the
	// controller.
	P99Target time.Duration
	// Store, when non-nil, is the durability manager already attached to
	// System. The server claims thread ids 0..Shards-1 on it and holds
	// each reply until the log covers it (package comment); Drain syncs
	// the log and forces a final checkpoint to CheckpointPath (if set). A
	// durable server is automatically a replication leader: TReplSub
	// subscribers stream its log.
	Store *durable.Store
	// CheckpointPath receives Drain's final checkpoint.
	CheckpointPath string
	// Follower, when non-nil, makes this a replica server: the backend's
	// heap is fed by the follower's replay, write requests are refused
	// until promotion, and reads run under the follower's snapshot lock.
	// The caller starts the follower; TReplPromote promotes it.
	Follower *replica.Follower
	// LeaderLogPath is the (shared-storage) path of the leader's WAL,
	// used by promotion to catch up past the dead leader's stream — the
	// zero-acked-loss step. Empty skips catch-up.
	LeaderLogPath string
	// Scenario and Scale label the hosted workload build in TStats
	// replies, so remote load generators can rebuild the matching Spec;
	// BaseDigest is that build's base image digest (memsim.Heap.Digest),
	// which a follower compares with its own before it replays the log.
	Scenario   string
	Scale      string
	BaseDigest string
	// TraceSlow, when positive, records server-origin spans into the
	// trace ring for every request the client did not sample whose
	// admission-to-socket-write lifecycle exceeds it.
	TraceSlow time.Duration
	// TraceLog is the node's log sink: internal/node writes the alert
	// engine's transition lines to it. Default os.Stderr.
	TraceLog io.Writer
}

// Server is a wire-protocol transaction server.
type Server struct {
	cfg       Config
	ln        net.Listener
	shards    []*shard
	pub       *replica.Publisher // non-nil on durable (leader-capable) servers
	hist      *stats.Histogram
	batchMax  atomic.Int64
	admitWait atomic.Int64 // nanoseconds

	batches    atomic.Uint64
	batchedOps atomic.Uint64

	// Telemetry: the registry (tel), the lifecycle stage histograms
	// beyond hist (admission wait, per-batch exec, reply flush), and the
	// frame counters the STATS reply carries.
	tel       *telemetry.Registry
	admitHist *stats.Histogram
	execHist  *stats.Histogram
	flushHist *stats.Histogram
	framesIn  atomic.Uint64
	framesOut atomic.Uint64
	traceSlow int64 // Config.TraceSlow in ns (0 = off)

	// Structured tracing: the span ring every stage records into (the
	// WAL and an attached follower share it), the seq→trace map the
	// replication publisher consults, and the id generator for
	// server-origin ids (slow requests the client did not sample).
	ring      *trace.Ring
	seqTraces trace.SeqTraces
	idGen     *trace.IDGen

	// labels are the pprof stage labels the server's goroutines set at
	// their entry (trace.StageLabels), built once here so that a
	// connection's goroutines label themselves without allocating.
	labels struct{ reader, executor, writer, publisher context.Context }

	// Adaptive admission controller state (admission.go); ctrl is nil
	// when Config.P99Target is zero.
	ctrlEpochs  atomic.Uint64
	ctrlAdjusts atomic.Uint64
	ctrl        *controller

	// execMu lets the control plane quiesce the executors: every batch
	// runs under RLock, a TCheck takes Lock.
	execMu sync.RWMutex

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	draining atomic.Bool
	drained  chan struct{} // closed when Drain starts: stops replication streams

	readers sync.WaitGroup
	execs   sync.WaitGroup
	writers sync.WaitGroup

	drainOnce sync.Once
	drainErr  error
}

// shard is one executor: a queue, a backend session and scratch state.
type shard struct {
	id int
	// ch carries chains of tasks (linked by task.next), one per reader
	// hand-off: the requests for this shard that one socket read carried.
	ch   chan *task
	sess engine.Session
	// claimed is set on a durable leader: the shard's thread returns from
	// Atomic at commit and its replies are stamped for the writer's wait.
	claimed bool
	batch   []*task
	carry   *task       // the rest of a chain the last batch had no room for
	conns   []*srvConn  // connections with replies in the current batch
	timer   *time.Timer // admission-grace timer, reused across batches
	// body is the transaction body handed to System.Atomic, bound once
	// at construction — a per-batch closure literal would escape and
	// cost one heap allocation per batch.
	body func(tm.Ops)
}

// task is one admitted data-plane request. Tasks are pooled: the reader
// decodes into ops, the executor fills results and encodes the framed
// reply in place, and the writer recycles the task after the socket
// write — all three buffers keep their capacity across requests, which
// is what makes the steady-state request path allocation-free.
//
// Tasks travel in chains linked through next: reader → executor, one
// chain per shard and socket read; executor → writer, one chain per
// connection and batch. Each hop's owner relinks them.
type task struct {
	next    *task
	c       *srvConn
	id      uint64
	trace   uint64 // client-stamped trace id (0 = unsampled)
	seq     uint64 // sequence of the record the carrying batch logged (0 = none)
	stamp   uint64 // log position the reply waits for (0 = send at once)
	ackNs   int64  // reply encoded to released by the log (0 when unstamped)
	ops     []wire.Op
	results []wire.Result
	reply   []byte    // encoded TReply frame (wire.AppendResultsFrame)
	t0      time.Time // when the socket read that carried the request returned

	// Lifecycle trace, stamped by the executor and consumed by the
	// writer: when the batch started executing (admission wait = tExec -
	// t0) and when its replies were encoded (reply flush = socket write
	// time - tDone - ackNs). Every task of a batch shares both. batchOps
	// is the carrying batch's size, the exec span's argument. All plain
	// scalars on the pooled struct: tracing allocates nothing.
	tExec    time.Time
	tDone    time.Time
	batchOps int32
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// New validates the configuration and builds the server (not yet
// listening).
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil || cfg.System == nil {
		return nil, errors.New("server: Config needs Backend and System")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Shards > cfg.System.Threads() {
		return nil, fmt.Errorf("server: %d shards exceed the system's %d threads", cfg.Shards, cfg.System.Threads())
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 16
	}
	switch {
	case cfg.BatchMax < 1 || cfg.BatchMax > wire.MaxTxnOps:
		return nil, fmt.Errorf("server: batch_max %d out of range 1..%d", cfg.BatchMax, wire.MaxTxnOps)
	case cfg.AdmitWait < 0 || cfg.AdmitWait > time.Second:
		return nil, fmt.Errorf("server: admit_wait %s out of range 0..1s", cfg.AdmitWait)
	case cfg.P99Target < 0 || cfg.P99Target > time.Minute:
		return nil, fmt.Errorf("server: p99_target %s out of range 0..60s", cfg.P99Target)
	}
	s := &Server{
		cfg:       cfg,
		hist:      &stats.Histogram{},
		conns:     map[*srvConn]struct{}{},
		drained:   make(chan struct{}),
		traceSlow: int64(cfg.TraceSlow),
	}
	s.batchMax.Store(int64(cfg.BatchMax))
	s.admitWait.Store(int64(cfg.AdmitWait))
	role := trace.RoleLeader
	if cfg.Follower != nil {
		role = trace.RoleFollower
	}
	s.labels.reader = trace.StageLabels(trace.StageReader, role)
	s.labels.executor = trace.StageLabels(trace.StageExecutor, role)
	s.labels.writer = trace.StageLabels(trace.StageWriter, role)
	s.labels.publisher = trace.StageLabels(trace.StagePublisher, role)
	s.ring = trace.NewRing(trace.DefaultRingSpans)
	s.idGen = trace.NewIDGen(uint64(time.Now().UnixNano()))
	if cfg.Store != nil {
		s.pub = replica.NewPublisher(cfg.Store.LogPath(), cfg.Store.Log(), s.seqTraces.Get)
		cfg.Store.Log().SetTraceRing(s.ring)
	}
	if cfg.Follower != nil {
		cfg.Follower.SetTraceRing(s.ring)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id: i,
			// 256 chains: readers block on a full queue, which is the
			// backpressure of a saturated shard.
			ch:   make(chan *task, 256),
			sess: cfg.Backend.NewSession(),
		}
		sh.body = sh.execBody
		if cfg.Store != nil && cfg.Follower == nil {
			cfg.Store.ClaimAck(i)
			sh.claimed = true
		}
		s.shards = append(s.shards, sh)
	}
	s.registerMetrics()
	return s, nil
}

// Listen binds the server and starts its executors. Use addr
// "127.0.0.1:0" for an ephemeral loopback port; the chosen address is
// returned.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	for _, sh := range s.shards {
		s.execs.Add(1)
		go sh.run(s)
	}
	if s.cfg.P99Target > 0 {
		s.ctrl = &controller{s: s, stop: make(chan struct{}), done: make(chan struct{})}
		go s.ctrl.run()
	}
	return ln.Addr(), nil
}

// Serve accepts connections until the listener closes. It returns nil
// when the server is draining, the accept error otherwise.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn registers one accepted connection and spawns its reader and
// writer goroutines.
func (s *Server) startConn(nc net.Conn) {
	c := newSrvConn(s, nc)
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.readers.Add(1)
	go c.readLoop()
	s.writers.Add(1)
	go c.writeLoop()
}

// Drain shuts the server down gracefully: no new connections or
// requests are admitted, every already-admitted request commits and is
// answered, connections flush and close, and a durable store gets a
// final checkpoint. The order is readers exit → queues close →
// executors finish → log synced → writers flush → final checkpoint.
// Safe to call more than once; Serve returns nil once draining.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		close(s.drained)
		for c := range s.conns {
			// Unblock readers parked in a frame read; they observe the
			// draining flag and exit without admitting further requests.
			c.c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		if c := s.ctrl; c != nil {
			close(c.stop)
			<-c.done
		}
		if s.ln != nil {
			s.ln.Close()
		}
		// Readers are the only producers; once they exit the queues can
		// close, and the executors quiesce after finishing every admitted
		// batch.
		s.readers.Wait()
		for _, sh := range s.shards {
			close(sh.ch)
		}
		s.execs.Wait()
		// Nothing appends any more, so one sync covers every reply a writer
		// holds. If it fails they stay unsent: an unacknowledgeable commit
		// is never acknowledged.
		if s.cfg.Store != nil {
			if err := s.cfg.Store.Sync(); err != nil {
				s.drainErr = fmt.Errorf("server: drain sync: %w", err)
				return
			}
		}
		s.writers.Wait()
		if s.cfg.Store != nil && s.cfg.CheckpointPath != "" {
			if _, err := s.cfg.Store.WriteCheckpoint(s.cfg.CheckpointPath); err != nil {
				s.drainErr = fmt.Errorf("server: final checkpoint: %w", err)
			}
		}
	})
	return s.drainErr
}

// shardFor routes a request to an executor by its first key, so a hot
// key's traffic serializes onto one shard instead of conflicting across
// all of them. Requests with no key (empty TXNs) land on shard 0.
func (s *Server) shardFor(ops []wire.Op) *shard {
	if len(ops) == 0 {
		return s.shards[0]
	}
	h := ops[0].Key * 0x9e3779b97f4a7c15
	return s.shards[int(h>>33)%len(s.shards)]
}

// Snapshot builds the full TStats payload — the wire reply, and what a
// drain log or an embedding test reads in process.
func (s *Server) Snapshot() wire.ServerStats {
	var repl *wire.ReplStats
	if f := s.cfg.Follower; f != nil {
		rs := f.Stats()
		repl = &rs
	} else if s.pub != nil {
		repl = &wire.ReplStats{
			Role:        "leader",
			DurableSeq:  s.cfg.Store.DurableSeq(),
			Subscribers: s.pub.Subscribers(),
		}
	}
	tel := &wire.TelemetryStats{
		FramesIn:      s.framesIn.Load(),
		FramesOut:     s.framesOut.Load(),
		AdmitWaitHist: s.admitHist.Snapshot(),
		FlushHist:     s.flushHist.Snapshot(),
	}
	if st := s.cfg.Store; st != nil {
		ws := st.Log().Stats()
		tel.WalRecords = ws.Records
		tel.WalBytes = ws.Bytes
		tel.WalFsyncs = ws.Fsyncs
		tel.FsyncHist = st.Log().FsyncHist().Snapshot()
		tel.AckWaitHist = st.AckWaitHist().Snapshot()
	}
	return wire.ServerStats{
		Repl:        repl,
		System:      s.cfg.System.Name(),
		Scenario:    s.cfg.Scenario,
		Scale:       s.cfg.Scale,
		BaseDigest:  s.cfg.BaseDigest,
		Shards:      len(s.shards),
		BatchMax:    int(s.batchMax.Load()),
		AdmitWaitUs: int(time.Duration(s.admitWait.Load()) / time.Microsecond),
		P99TargetUs: int(s.cfg.P99Target / time.Microsecond),
		CtrlEpochs:  s.ctrlEpochs.Load(),
		CtrlAdjusts: s.ctrlAdjusts.Load(),
		Durable:     s.cfg.Store != nil,
		Stats:       s.cfg.System.Collector().Snapshot(),
		Batches:     s.batches.Load(),
		BatchedOps:  s.batchedOps.Load(),
		Hist:        s.hist.Snapshot(),
		Telemetry:   tel,
	}
}

// Hist exposes the per-op service-latency histogram: `repro serve`'s
// per-second line and the tests read it directly.
func (s *Server) Hist() *stats.Histogram { return s.hist }

// TraceRing exposes the server's span ring — what /debug/traces serves
// and what trace-reconstruction cells snapshot. The WAL's fsync spans
// and an attached follower's replay spans land in the same ring.
func (s *Server) TraceRing() *trace.Ring { return s.ring }

// recordSpans closes a request's lifecycle trace after the socket
// write: one span per stage plus the covering request span, all under
// one trace id. Requests the client did not sample get spans only when
// slow, under a fresh server-origin id. The stage spans tile the
// request exactly (admit + exec + ack + flush = total); an unstamped
// request has no ack span. Allocation-free: spans are stack literals
// into the lock-free ring.
func (s *Server) recordSpans(t *task, total time.Duration) {
	tr := t.trace
	if tr == 0 {
		tr = s.idGen.Next() | trace.ServerOriginBit
	}
	start := t.t0.UnixNano()
	admit := int64(t.tExec.Sub(t.t0))
	exec := int64(t.tDone.Sub(t.tExec))
	flush := int64(total) - admit - exec - t.ackNs
	s.ring.Add(trace.Span{Trace: tr, Kind: trace.KAdmit, Start: start, Dur: admit})
	s.ring.Add(trace.Span{Trace: tr, Kind: trace.KExec, Start: start + admit, Dur: exec, Arg: int64(t.batchOps)})
	if t.ackNs > 0 {
		s.ring.Add(trace.Span{Trace: tr, Kind: trace.KAck, Seq: t.stamp, Start: start + admit + exec, Dur: t.ackNs})
	}
	s.ring.Add(trace.Span{Trace: tr, Kind: trace.KFlush, Start: start + admit + exec + t.ackNs, Dur: flush})
	s.ring.Add(trace.Span{Trace: tr, Kind: trace.KRequest, Start: start, Dur: int64(total), Arg: int64(len(t.ops)), Seq: t.seq})
}

// Draining reports whether Drain has started — the readiness signal.
func (s *Server) Draining() bool { return s.draining.Load() }

// run is the executor loop: take one chain (blocking), coalesce tasks
// up to the batch bound — from the chain, then from further chains the
// queue already holds and, with a non-zero admission grace, from chains
// that arrive within it — then execute the batch as one transaction and
// queue its replies. The first task always goes in and a task never
// splits; what a full batch leaves of a chain carries over to the next.
func (sh *shard) run(s *Server) {
	pprof.SetGoroutineLabels(s.labels.executor)
	defer s.execs.Done()
	for {
		if sh.carry == nil {
			t, ok := <-sh.ch
			if !ok {
				return
			}
			sh.carry = t
		}
		sh.batch = sh.batch[:0]
		opsN := 0
		max := int(s.batchMax.Load())
		wait := time.Duration(s.admitWait.Load())
		var deadline time.Time
		if wait > 0 {
			deadline = time.Now().Add(wait)
		}
	fill:
		for {
			for sh.carry != nil && opsN < max {
				t := sh.carry
				sh.carry, t.next = t.next, nil
				sh.batch = append(sh.batch, t)
				opsN += len(t.ops)
			}
			if opsN >= max {
				break
			}
			select {
			case t, ok := <-sh.ch:
				if !ok {
					// Queue closed mid-fill: run what we have, then exit at
					// the next receive.
					break fill
				}
				sh.carry = t
				continue
			default:
			}
			// Queue dry: wait out the admission grace, if any remains.
			if wait <= 0 {
				break
			}
			rem := time.Until(deadline)
			if rem <= 0 {
				break
			}
			// The grace timer is per-shard and reused across batches
			// (Reset/Stop without draining is sound under go >= 1.23 timer
			// semantics), so a non-zero admission grace costs no allocation
			// per batch.
			if sh.timer == nil {
				sh.timer = time.NewTimer(rem)
			} else {
				sh.timer.Reset(rem)
			}
			select {
			case t, ok := <-sh.ch:
				sh.timer.Stop()
				if !ok {
					break fill
				}
				sh.carry = t
			case <-sh.timer.C:
				break fill
			}
		}
		sh.exec(s, opsN)
	}
}

// exec runs one batch as a single transaction, stamps each task with the
// log position its reply waits for, encodes the replies and queues them,
// one message per connection.
func (sh *shard) exec(s *Server, opsN int) {
	tExec := time.Now()
	for _, t := range sh.batch {
		s.admitHist.Observe(tExec.Sub(t.t0))
	}
	s.execMu.RLock()
	if f := s.cfg.Follower; f != nil {
		// Replica batches run under the follower's snapshot lock: replay
		// applies whole records under the write lock, so the batch
		// observes a record-boundary prefix at the published watermark.
		f.RLock()
	}
	inserts := 0
	kind := tm.KindReadOnly
	for _, t := range sh.batch {
		if cap(t.results) < len(t.ops) {
			t.results = make([]wire.Result, len(t.ops))
		}
		t.results = t.results[:len(t.ops)]
		for _, op := range t.ops {
			if op.Kind.MayInsert() {
				inserts++
			}
			if !op.Kind.ReadOnly() {
				kind = tm.KindUpdate
			}
		}
	}
	sh.sess.Prepare(inserts)
	var prevSeq uint64
	if sh.claimed {
		prevSeq = s.cfg.Store.ThreadSeq(sh.id)
	}
	s.cfg.System.Atomic(sh.id, kind, sh.body)
	sh.sess.Commit()
	if f := s.cfg.Follower; f != nil {
		f.RUnlock()
	}
	s.execMu.RUnlock()

	// The ordering rule (package comment). seq is the record this batch
	// logged, if any; stamp is the log position its replies wait for.
	var seq, stamp uint64
	if sh.claimed {
		stamp = s.cfg.Store.LastSeq()
		if own := s.cfg.Store.ThreadSeq(sh.id); own != prevSeq {
			seq, stamp = own, own
			// The record can ship to followers as soon as it is durable,
			// which nothing here waits for: its trace id has to be on file
			// before the first message can block on a full reply queue.
			for _, t := range sh.batch {
				if t.trace != 0 {
					s.seqTraces.Put(seq, t.trace)
				}
			}
		}
	}
	s.batches.Add(1)
	s.batchedOps.Add(uint64(opsN))
	for _, t := range sh.batch {
		// The framed reply is encoded straight into the task's own buffer
		// (no intermediate payload, no copy).
		t.reply = wire.AppendResultsFrameT(t.reply[:0], t.id, t.trace, t.results)
	}
	tDone := time.Now()
	s.execHist.Observe(tDone.Sub(tExec))
	for _, t := range sh.batch {
		// The writer owns the task from here, and recycles it after the
		// write.
		t.seq, t.stamp, t.ackNs = seq, stamp, 0
		t.tExec, t.tDone = tExec, tDone
		t.batchOps = int32(opsN)
		r := &t.c.io.replies[sh.id]
		if r.head == nil {
			r.head = t
			sh.conns = append(sh.conns, t.c)
		} else {
			r.tail.next = t
		}
		r.tail = t
	}
	for i, c := range sh.conns {
		r := &c.io.replies[sh.id]
		head := r.head
		r.head, r.tail = nil, nil
		sh.conns[i] = nil
		c.sendTasks(head)
	}
	sh.conns = sh.conns[:0]
}

// release holds a connection's message — one batch's replies, which
// share one stamp — until the log covers the stamp (the requests' ack
// stage), then observes each request's service latency (admission to
// the moment the reply may leave: what the admission controller and the
// SLO rules steer on). It runs on the connection's writer, just before
// the write.
func (s *Server) release(head *task) {
	now := head.tDone
	var ack time.Duration
	if head.stamp != 0 {
		s.cfg.Store.Log().WaitDurable(head.stamp)
		now = time.Now()
		ack = now.Sub(head.tDone)
	}
	for t := head; t != nil; t = t.next {
		if head.stamp != 0 {
			t.ackNs = int64(ack)
			s.cfg.Store.AckWaitHist().Observe(ack)
		}
		s.hist.Observe(now.Sub(t.t0))
	}
}

// execBody is the transaction body for the shard's current batch. The
// body may retry (TM contract): Reset rewinds the session and results
// are overwritten in place, so replays are idempotent.
func (sh *shard) execBody(ops tm.Ops) {
	sh.sess.Reset()
	for _, t := range sh.batch {
		for i, op := range t.ops {
			t.results[i] = engine.Exec(sh.sess, ops, op)
		}
	}
}
