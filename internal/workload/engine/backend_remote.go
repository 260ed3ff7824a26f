package engine

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/memsim"
	"sihtm/internal/tm"
	"sihtm/internal/trace"
	"sihtm/internal/wire"
)

// RemoteBackend drives a key-value workload against a networked
// transaction server (internal/server) instead of an in-process data
// structure: every existing Spec runs unmodified over it. It holds a
// small pool of pipelined connections; sessions are assigned
// round-robin, so when sessions outnumber connections many requests are
// in flight per connection and the server's admission stage sees the
// concurrent stream its batching coalesces.
//
// A session ships ops two ways, by whether the caller uses the result:
//
//   - The Session methods are synchronous: each call ships the deferred
//     buffer plus the new op as one TXN and returns the op's real result
//     — what the server's Exec made of it. Tests and interactive callers
//     get exact key-value semantics.
//   - Defer (Deferrer) queues an op client-side, and Commit ships the
//     queue as one TXN frame — the driver's path, where one planned
//     transaction becomes one atomic server-side unit.
//
// Transport failures are fatal to the workload (the session protocol
// has no error channel) and surface as panics; orchestrate shutdown so
// load generators finish before the server drains.
type RemoteBackend struct {
	conns []*clientConn
	next  atomic.Uint32
}

// DialRemote connects a pool of conns pipelined connections to a wire
// server.
func DialRemote(addr string, conns int) (*RemoteBackend, error) {
	if conns <= 0 {
		conns = 1
	}
	b := &RemoteBackend{}
	for i := 0; i < conns; i++ {
		c, err := dialConn(addr)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("engine: remote backend: %w", err)
		}
		b.conns = append(b.conns, c)
	}
	return b, nil
}

// Close tears down the connection pool.
func (b *RemoteBackend) Close() error {
	var first error
	for _, c := range b.conns {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return "remote" }

// clientTracer is the backend's shared tracing state: one sampler and
// id stream across the pool, one ring collecting client spans.
type clientTracer struct {
	ring    *trace.Ring
	sampler *trace.Sampler
	ids     *trace.IDGen
}

// EnableTracing samples every n-th transaction with a fresh trace id
// (1 traces everything): the id rides the TXN frame's trace extension,
// the server threads it through its stages, and the client records a
// KClient span per traced TXN round trip into the returned ring.
// Call before traffic starts.
func (b *RemoteBackend) EnableTracing(every int) *trace.Ring {
	tr := &clientTracer{
		ring:    trace.NewRing(trace.DefaultRingSpans),
		sampler: trace.NewSampler(every),
		ids:     trace.NewIDGen(uint64(time.Now().UnixNano())),
	}
	for _, c := range b.conns {
		c.tr = tr
	}
	return tr.ring
}

// NewSession implements Backend: the session pipelines on the pool's
// next connection.
func (b *RemoteBackend) NewSession() Session {
	c := b.conns[int(b.next.Add(1)-1)%len(b.conns)]
	return &remoteSession{c: c, w: newWaiter()}
}

// Direct implements Backend. A remote backend has no local heap; the
// returned Ops panics on use. Populate and the conformance suite pass
// it into session methods, which ignore it — population happens through
// real (synchronous) wire requests.
func (b *RemoteBackend) Direct() tm.Ops { return remoteNoOps{} }

// Check implements Backend by running the server-side backend's
// structural invariant check quiescently (the server pauses its
// executors around it).
func (b *RemoteBackend) Check() error {
	t, payload, err := b.conns[0].roundTrip(wire.TCheck, nil)
	if err != nil {
		return err
	}
	if t == wire.TErr {
		return fmt.Errorf("engine: remote check: %s", payload)
	}
	return nil
}

// Stats fetches the server's statistics snapshot — the load generator's
// measurement-window source (difference two snapshots).
func (b *RemoteBackend) Stats() (wire.ServerStats, error) {
	var st wire.ServerStats
	t, payload, err := b.conns[0].roundTrip(wire.TStats, nil)
	if err != nil {
		return st, err
	}
	if t == wire.TErr {
		return st, fmt.Errorf("engine: remote stats: %s", payload)
	}
	err = wire.DecodeJSON(payload, &st)
	return st, err
}

// Promote asks a follower server to promote itself (catch up from the
// dead leader's log and start admitting writes), returning the
// follower's post-promotion replication stats.
func (b *RemoteBackend) Promote() (wire.ReplStats, error) {
	var rs wire.ReplStats
	t, payload, err := b.conns[0].roundTrip(wire.TReplPromote, nil)
	if err != nil {
		return rs, err
	}
	if t == wire.TErr {
		return rs, fmt.Errorf("engine: remote promote: %s", payload)
	}
	err = wire.DecodeJSON(payload, &rs)
	return rs, err
}

var _ Backend = (*RemoteBackend)(nil)

// remoteNoOps is the Direct() placeholder: any dereference is a bug.
type remoteNoOps struct{}

func (remoteNoOps) Read(memsim.Addr) uint64 {
	panic("engine: remote backend has no direct heap access")
}
func (remoteNoOps) Write(memsim.Addr, uint64) {
	panic("engine: remote backend has no direct heap access")
}

// remoteSession is one thread's pipelined view of the server. It owns
// its waiter (sessions are single-threaded with one outstanding request
// at a time), so a steady-state synchronous round trip — encode, write,
// demultiplexed reply, parse — performs no heap allocations.
type remoteSession struct {
	c       *clientConn
	w       *waiter
	pending []wire.Op
	results []wire.Result
}

// Prepare implements Session; pool sizing happens server-side, per
// batch.
func (s *remoteSession) Prepare(int) {}

// Reset implements Session: rewinding a retried transaction body
// discards the ops the previous attempt deferred.
func (s *remoteSession) Reset() { s.pending = s.pending[:0] }

// Commit implements Session: ship anything still deferred as one TXN.
func (s *remoteSession) Commit() {
	if len(s.pending) > 0 {
		s.flush()
	}
}

// flush ships the pending ops as one TXN, encoded straight into the
// connection's write buffer (no intermediate payload slice), and fills
// s.results.
func (s *remoteSession) flush() {
	rt, rp, err := s.c.do(s.w, 0, nil, s.pending)
	if err != nil {
		panic(fmt.Sprintf("engine: remote session: %v", err))
	}
	if rt == wire.TErr {
		panic(fmt.Sprintf("engine: remote session: server error: %s", rp))
	}
	s.results, err = wire.ParseResults(rp, s.results)
	if err != nil {
		panic(fmt.Sprintf("engine: remote session: %v", err))
	}
	if len(s.results) != len(s.pending) {
		panic(fmt.Sprintf("engine: remote session: %d results for %d ops", len(s.results), len(s.pending)))
	}
	s.pending = s.pending[:0]
}

// syncOp appends op, ships the whole pending buffer, and returns the
// op's own result — the synchronous plain-Session path.
func (s *remoteSession) syncOp(op wire.Op) wire.Result {
	s.pending = append(s.pending, op)
	s.flush()
	return s.results[len(s.results)-1]
}

// Read implements Session (synchronous).
func (s *remoteSession) Read(_ tm.Ops, key uint64) (uint64, bool) {
	r := s.syncOp(wire.Op{Kind: wire.OpGet, Key: key})
	return r.Val, r.OK
}

// Insert implements Session (synchronous).
func (s *remoteSession) Insert(_ tm.Ops, key, value uint64) bool {
	return s.syncOp(wire.Op{Kind: wire.OpPut, Key: key, Arg: value}).OK
}

// Delete implements Session (synchronous).
func (s *remoteSession) Delete(_ tm.Ops, key uint64) bool {
	return s.syncOp(wire.Op{Kind: wire.OpDel, Key: key}).OK
}

// Scan implements Session (synchronous).
func (s *remoteSession) Scan(_ tm.Ops, key uint64, n int) int {
	return int(s.syncOp(wire.Op{Kind: wire.OpScan, Key: key, Arg: uint64(n)}).Val)
}

// Defer implements Deferrer: the op waits in the pending buffer for
// the next flush.
func (s *remoteSession) Defer(op wire.Op) { s.pending = append(s.pending, op) }

var _ Deferrer = (*remoteSession)(nil)

// RemoteSystem is the client-side tm.System of a networked workload:
// transaction execution, retry and fall-back all happen server-side, so
// Atomic just runs the body once (deferring its ops into the session)
// and counts the commit. The Ops handed to the body panics on use —
// remote sessions never touch a local heap. The commit is counted when
// Atomic returns; the durable acknowledgement wait happens in the
// session's Commit flush, one call later in the driver's protocol, so
// a measured window's commit count can lead its acked flushes by at
// most one transaction per worker. Its Collector holds client-observed
// commits only (the server's collector holds the abort taxonomy).
type RemoteSystem struct{ tm.Base }

// NewRemoteSystem builds the client system. name labels records — pass
// the server's concurrency control so remote cells compare like local
// ones.
func NewRemoteSystem(name string, threads int) *RemoteSystem {
	return &RemoteSystem{tm.NewBase(name, threads)}
}

// Atomic implements tm.System.
func (s *RemoteSystem) Atomic(thread int, kind tm.Kind, body func(tm.Ops)) {
	body(remoteNoOps{})
	s.Collector().Thread(thread).Commit(kind == tm.KindReadOnly)
}

var _ tm.System = (*RemoteSystem)(nil)

// clientConn is one pipelined connection: writes are serialized under a
// mutex, a reader goroutine demultiplexes responses to waiters by
// request id.
type clientConn struct {
	c  net.Conn
	bw *bufio.Writer
	tr *clientTracer // nil unless EnableTracing ran

	wmu    sync.Mutex // serializes frame encode+write+flush
	wbuf   []byte
	nextID uint64 // guarded by wmu

	pmu     sync.Mutex
	pending map[uint64]*waiter
	broken  error // sticky transport failure, guarded by pmu

	readerDone chan struct{}
}

// waiter is one caller's reply slot: a reusable one-shot channel plus
// the buffer the reader copies the payload into. The channel is never
// closed (a transport failure is delivered as a clientReply carrying
// err), so a waiter is reusable across requests: sessions keep one for
// their lifetime, which is what makes the client round trip
// allocation-free.
type waiter struct {
	ch  chan clientReply
	buf []byte
}

func newWaiter() *waiter { return &waiter{ch: make(chan clientReply, 1)} }

// clientReply is one demultiplexed response; n is the payload length
// copied into the waiter's buffer.
type clientReply struct {
	t   wire.Type
	n   int
	err error
}

func dialConn(addr string) (*clientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &clientConn{
		c:          nc,
		bw:         bufio.NewWriter(nc),
		pending:    map[uint64]*waiter{},
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *clientConn) close() error {
	err := c.c.Close()
	<-c.readerDone
	return err
}

// fail marks the connection broken and wakes every waiter. Each pending
// waiter gets exactly one reply (cap-1 channel), so the sends never
// block and the channels stay reusable.
func (c *clientConn) fail(err error) {
	c.pmu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	for id, w := range c.pending {
		w.ch <- clientReply{err: err}
		delete(c.pending, id)
	}
	c.pmu.Unlock()
}

func (c *clientConn) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.c)
	var scratch []byte
	for {
		var (
			id      uint64
			t       wire.Type
			payload []byte
			err     error
		)
		id, t, payload, scratch, err = wire.ReadFrame(br, scratch)
		if err != nil {
			c.fail(fmt.Errorf("engine: remote connection: %w", err))
			return
		}
		c.pmu.Lock()
		w, ok := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if ok {
			// Copy into the waiter's own (reused) buffer: the scratch is
			// about to be overwritten by the next frame, and the waiter is
			// the only goroutine that will read buf until its next request.
			w.buf = append(w.buf[:0], payload...)
			w.ch <- clientReply{t: t, n: len(payload)}
		}
	}
}

// roundTrip sends one control-plane request and blocks for its
// response, on a fresh waiter (the data plane goes through do with the
// session's own waiter).
func (c *clientConn) roundTrip(t wire.Type, payload []byte) (wire.Type, []byte, error) {
	return c.do(newWaiter(), t, payload, nil)
}

// do sends one request on w and blocks for its response. Concurrent
// callers pipeline: the write lock covers only the frame encode+write,
// and responses are matched by id. When ops is non-nil the request is a
// TXN encoded directly into the connection's write buffer
// (wire.AppendOpsFrame — no intermediate payload); otherwise t/payload
// frame as given. The returned payload aliases w.buf and is valid until
// w's next request.
func (c *clientConn) do(w *waiter, t wire.Type, payload []byte, ops []wire.Op) (wire.Type, []byte, error) {
	// Head-based sampling happens here, at the single point every
	// data-plane transaction funnels through; the id rides the frame's
	// trace extension and the span closes when the reply lands.
	var traceID uint64
	var traceT0 time.Time
	if tr := c.tr; tr != nil && ops != nil && tr.sampler.Sample() {
		traceID = tr.ids.Next()
		traceT0 = time.Now()
	}
	c.wmu.Lock()
	c.nextID++
	id := c.nextID
	c.pmu.Lock()
	if err := c.broken; err != nil {
		c.pmu.Unlock()
		c.wmu.Unlock()
		return 0, nil, err
	}
	c.pending[id] = w
	c.pmu.Unlock()
	if ops != nil {
		c.wbuf = wire.AppendOpsFrameT(c.wbuf[:0], id, traceID, ops)
	} else {
		c.wbuf = wire.AppendFrame(c.wbuf[:0], id, t, payload)
	}
	_, werr := c.bw.Write(c.wbuf)
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("engine: remote connection: %w", werr))
		// The failure reply w received (from fail, or from the reader's
		// own exit) must be consumed so w stays reusable.
		<-w.ch
		return 0, nil, werr
	}

	r := <-w.ch
	if r.err != nil {
		return 0, nil, r.err
	}
	if traceID != 0 {
		c.tr.ring.Add(trace.Span{
			Trace: traceID,
			Kind:  trace.KClient,
			Start: traceT0.UnixNano(),
			Dur:   int64(time.Since(traceT0)),
			Arg:   int64(len(ops)),
		})
	}
	return r.t, w.buf[:r.n], nil
}
