package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run measures every layer from outside: decorators owned by
// the benchmark sit at the program's public seams (tm.System, tm.Ops,
// engine.Backend/Session, net.Conn), count every call, time what they
// can afford to, and keep spans in preallocated rings. End-to-end metrics
// never come from this run; trace_overhead_frac says what it costs.

const (
	levelTM      = iota // decorator around the concurrency control
	levelDurable        // decorator around durable.Store.Attach's wrapper

	spanSampleMask = 63      // one transaction (or request) in 64 is spanned
	ringSpans      = 1 << 15 // spans kept per lane, newest win
	maxLines       = 4096    // distinct lines counted per attempt
	maxStack       = 8
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's base time; spans of one transaction (or
// request) share Tx, and Parent is the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Tx     uint64 `json:"tx"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanRing is a preallocated, overwrite-oldest span buffer owned by one
// goroutine.
type spanRing struct {
	buf []span
	n   uint64
}

func (r *spanRing) add(s span) {
	r.buf[r.n%uint64(len(r.buf))] = s
	r.n++
}

// tracer owns the decorators' state. Counters live per thread (lane) in
// two windows: window 0 collects warm-up and anything not measured,
// window 1 the measured slice; the main goroutine flips tracer.window at
// the slice edges and reads the counters only after the workers stopped.
type tracer struct {
	base    time.Time
	clockNs int64 // cost of one clock read, inside every timed interval
	window  atomic.Int32

	threads []*threadTrace

	mu    sync.Mutex
	lanes []*spanRing // client lanes, registered as connections dial
}

func newTracer() *tracer {
	tr := &tracer{base: time.Now()}
	tr.clockNs = tr.calibrateClock()
	for i := 0; i < loadThreads; i++ {
		tr.threads = append(tr.threads, newThreadTrace(tr, i))
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// calibrateClock measures what one clock read costs: the median distance
// of back-to-back reads.
func (tr *tracer) calibrateClock() int64 {
	d := make([]int64, 1001)
	for i := range d {
		t0 := tr.now()
		d[i] = tr.now() - t0
	}
	slices.Sort(d)
	return d[len(d)/2]
}

// newLane registers a span ring for a client goroutine and returns it
// with its lane number (span and transaction ids carry the lane in their
// top bits, so ids never collide across goroutines).
func (tr *tracer) newLane() (*spanRing, uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := &spanRing{buf: make([]span, ringSpans)}
	tr.lanes = append(tr.lanes, r)
	return r, uint64(loadThreads + len(tr.lanes))
}

// tmCounters are one thread's decorator counts for one window.
type tmCounters struct {
	atomics, bodies  uint64
	atomicNs, bodyNs int64
	outers           uint64
	outerNs          int64
	reads, writes    uint64
	timedReads       uint64
	timedWrites      uint64
	readNs, writeNs  int64
	readLines        [maxLines + 1]uint64 // attempts by distinct lines read
	writeLines       [maxLines + 1]uint64
	sessReads        uint64 // Session.Read calls
	sessReadAccesses uint64 // Ops.Read calls inside them
	sessReadNs       int64  // sampled: Session.Read, contained Ops included
	timedSessReads   uint64
	rmwNs            int64 // sampled: Session.Read + Insert on one key
	timedSessRMWs    uint64
	_                [64]byte
}

type openSpan struct {
	id    uint64
	name  string
	start int64
}

// threadTrace is the per-thread state shared by the System, Ops and
// Session decorators of one transaction thread.
type threadTrace struct {
	tr   *tracer
	lane uint64
	ring spanRing
	win  [2]tmCounters
	c    *tmCounters // window of the transaction in flight

	spanSeq uint64
	txSeq   uint64
	tx      uint64
	inTx    bool
	sampled bool // this transaction records spans
	timeOps bool // and times its Ops calls too (every other sampled transaction)
	attempt int
	stack   [maxStack]openSpan
	depth   int

	userBody func(Ops)
	wrapped  func(Ops) // bound once: a closure per Atomic would allocate
	ops      tracedOps
}

func newThreadTrace(tr *tracer, thread int) *threadTrace {
	t := &threadTrace{tr: tr, lane: uint64(thread + 1)}
	t.ring.buf = make([]span, ringSpans)
	t.c = &t.win[0]
	t.ops.t = t
	t.ops.rl.init()
	t.ops.wl.init()
	t.wrapped = t.runBody
	return t
}

func (t *threadTrace) open(name string, now int64) {
	if t.depth == maxStack {
		return
	}
	t.spanSeq++
	t.stack[t.depth] = openSpan{id: t.lane<<40 | t.spanSeq, name: name, start: now}
	t.depth++
}

func (t *threadTrace) close(now int64) {
	if t.depth == 0 {
		return
	}
	t.depth--
	o := t.stack[t.depth]
	var parent uint64
	if t.depth > 0 {
		parent = t.stack[t.depth-1].id
	}
	t.ring.add(span{ID: o.id, Parent: parent, Tx: t.tx, Name: o.name, Start: o.start, End: now})
}

// beginTx opens a transaction unless one is open already (the in-process
// worker opens it around Prepare/Atomic/Commit; on a server the Atomic
// decorator does). It reports whether the caller owns the matching endTx.
func (t *threadTrace) beginTx() bool {
	if t.inTx {
		return false
	}
	t.inTx = true
	t.txSeq++
	t.tx = t.lane<<40 | t.txSeq
	t.sampled = t.txSeq&spanSampleMask == 0
	// Sampled transactions alternate between two depths. The deep ones
	// time every Ops call (htm.access spans, htm.read_ns); the shallow
	// ones stop at the Session calls, whose durations would otherwise be
	// mostly the cost of timing the hundred Ops calls inside them.
	t.timeOps = t.sampled && t.txSeq&(2*spanSampleMask+1) == 0
	t.attempt = 0
	t.c = &t.win[t.tr.window.Load()]
	if t.sampled {
		t.open("tx", t.tr.now())
	}
	return true
}

func (t *threadTrace) endTx() {
	if t.sampled {
		t.close(t.tr.now())
	}
	t.inTx = false
	t.sampled, t.timeOps = false, false
}

var bodyNames = [...]string{"body#0", "body#1", "body#2", "body#3", "body#4", "body#5", "body#6", "body#7", "body#8", "body#9", "body#10", "body#n"}

// runBody is the transaction body handed to the concurrency control: it
// times one attempt of the user's body and hands it the counting Ops.
func (t *threadTrace) runBody(ops Ops) {
	t.c.bodies++
	t.ops.inner = ops
	t.ops.rl.reset()
	t.ops.wl.reset()
	depth := t.depth
	t0 := t.tr.now()
	if t.sampled {
		t.open(bodyNames[min(t.attempt, len(bodyNames)-1)], t0)
	}
	t.attempt++
	// Deferred: an abort leaves the body by panic, and the attempt's time
	// and footprint count all the same.
	defer t.endBody(t0, depth)
	t.userBody(&t.ops)
}

func (t *threadTrace) endBody(t0 int64, depth int) {
	t1 := t.tr.now()
	t.c.bodyNs += t1 - t0
	if t.sampled {
		t.depth = min(t.depth, depth+1) // drop spans the abort left open
		t.close(t1)
	}
	t.c.readLines[t.ops.rl.n]++
	t.c.writeLines[t.ops.wl.n]++
}

// tracedSystem decorates a tm.System.
type tracedSystem struct {
	inner System
	tr    *tracer
	level int
}

func (tr *tracer) wrapSystem(inner System, level int) System {
	return &tracedSystem{inner: inner, tr: tr, level: level}
}

func (s *tracedSystem) Name() string { return s.inner.Name() }
func (s *tracedSystem) Threads() int { return s.inner.Threads() }

// Collector returns the inner collector: the server diffs its per-thread
// view around each batch.
func (s *tracedSystem) Collector() *Collector { return s.inner.Collector() }

// SetCommitHook forwards durable.Store.Attach's hook to the decorated
// system's software publication paths.
func (s *tracedSystem) SetCommitHook(h CommitHook) {
	if hs, ok := s.inner.(Hookable); ok {
		hs.SetCommitHook(h)
	}
}

func (s *tracedSystem) Atomic(thread int, kind Kind, body func(Ops)) {
	t := s.tr.threads[thread]
	own := t.beginTx()
	t0 := s.tr.now()
	if s.level == levelDurable {
		if t.sampled {
			t.open("durable.atomic", t0)
		}
		s.inner.Atomic(thread, kind, body)
		t1 := s.tr.now()
		t.c.outers++
		t.c.outerNs += t1 - t0
		if t.sampled {
			t.close(t1)
		}
	} else {
		if t.sampled {
			t.open("tm.atomic", t0)
		}
		t.userBody = body
		s.inner.Atomic(thread, kind, t.wrapped)
		t1 := s.tr.now()
		t.c.atomics++
		t.c.atomicNs += t1 - t0
		if t.sampled {
			t.close(t1)
		}
	}
	if own {
		t.endTx()
	}
}

// tracedOps decorates the tm.Ops of one attempt: every call counted, the
// calls of sampled transactions timed, distinct lines kept per attempt.
type tracedOps struct {
	t      *threadTrace
	inner  Ops
	rl, wl lineSet
}

func (o *tracedOps) Read(a Addr) uint64 {
	t := o.t
	t.c.reads++
	o.rl.add(uint64(LineOf(a)))
	if !t.timeOps {
		return o.inner.Read(a)
	}
	t0 := t.tr.now()
	t.open("htm.access", t0)
	v := o.inner.Read(a)
	t1 := t.tr.now()
	t.close(t1)
	t.c.timedReads++
	t.c.readNs += t1 - t0
	return v
}

func (o *tracedOps) Write(a Addr, v uint64) {
	t := o.t
	t.c.writes++
	o.wl.add(uint64(LineOf(a)))
	if !t.timeOps {
		o.inner.Write(a, v)
		return
	}
	t0 := t.tr.now()
	t.open("htm.access", t0)
	o.inner.Write(a, v)
	t1 := t.tr.now()
	t.close(t1)
	t.c.timedWrites++
	t.c.writeNs += t1 - t0
}

// lineSet counts the distinct cache lines of one attempt: an
// open-addressing table whose slots are invalidated by bumping a
// generation instead of clearing.
type lineSet struct {
	slots []lineSlot
	gen   uint32
	n     int
	last  uint64
}

type lineSlot struct {
	line uint64
	gen  uint32
}

func (s *lineSet) init() { s.slots = make([]lineSlot, 4*maxLines); s.reset() }

func (s *lineSet) reset() { s.gen++; s.n = 0; s.last = ^uint64(0) }

func (s *lineSet) add(l uint64) {
	if l == s.last || s.n == maxLines {
		return
	}
	s.last = l
	mask := uint64(len(s.slots) - 1)
	for i := (l * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = lineSlot{line: l, gen: s.gen}
			s.n++
			return
		}
		if sl.line == l {
			return
		}
	}
}

// tracedBackend decorates an engine.Backend so that every session it
// hands out is a tracedSession.
type tracedBackend struct{ Backend }

func (tr *tracer) wrapBackend(b Backend) Backend { return &tracedBackend{Backend: b} }

func (b *tracedBackend) NewSession() Session {
	return &tracedSession{Session: b.Backend.NewSession()}
}

// tracedSession decorates an engine.Session. It finds its thread through
// the tracedOps it is handed; calls made with any other Ops (Populate,
// checks) pass through unmeasured.
type tracedSession struct {
	Session

	// A sampled Read waits here: followed by an Insert of the same key it
	// was the read half of a read-modify-write.
	pending bool
	pendKey uint64
	pendNs  int64
	pendC   *tmCounters
}

func (s *tracedSession) flushPending() {
	if s.pending {
		s.pendC.sessReadNs += s.pendNs
		s.pendC.timedSessReads++
		s.pending = false
	}
}

func (s *tracedSession) Reset() {
	s.pending = false // an aborted attempt's half-finished op is dropped
	s.Session.Reset()
}

func (s *tracedSession) Commit() {
	s.flushPending()
	s.Session.Commit()
}

// timed runs one Session call of a sampled transaction as an engine.op
// span and returns how long it took, contained Ops calls included.
func (o *tracedOps) timed(call func()) int64 {
	t := o.t
	t0 := t.tr.now()
	t.open("engine.op", t0)
	call()
	t1 := t.tr.now()
	t.close(t1)
	return t1 - t0 - t.tr.clockNs
}

func (s *tracedSession) Read(ops Ops, key uint64) (v uint64, ok bool) {
	o, traced := ops.(*tracedOps)
	if !traced {
		return s.Session.Read(ops, key)
	}
	c := o.t.c
	r0 := c.reads
	if !o.t.sampled {
		v, ok = s.Session.Read(ops, key)
	} else {
		s.flushPending()
		d := o.timed(func() { v, ok = s.Session.Read(ops, key) })
		// Only the shallow sample counts: the deep one's duration is
		// mostly clock reads.
		s.pending, s.pendKey, s.pendNs, s.pendC = !o.t.timeOps, key, d, c
	}
	c.sessReads++
	c.sessReadAccesses += c.reads - r0
	return v, ok
}

func (s *tracedSession) Insert(ops Ops, key, value uint64) (isNew bool) {
	o, traced := ops.(*tracedOps)
	if !traced || !o.t.sampled {
		return s.Session.Insert(ops, key, value)
	}
	d := o.timed(func() { isNew = s.Session.Insert(ops, key, value) })
	if s.pending && s.pendKey == key {
		s.pending = false
		o.t.c.rmwNs += s.pendNs + d
		o.t.c.timedSessRMWs++
	} else {
		s.flushPending()
	}
	return isNew
}

// countingConn counts the client's socket calls: bytes and frames per
// call show the server's reply coalescing from outside.
type countingConn struct {
	net.Conn
	reads, readBytes, writeBytes atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.readBytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writeBytes.Add(uint64(n))
	return n, err
}

// total sums window 1 over the threads. Call only while no transaction
// runs.
func (tr *tracer) total() *tmCounters {
	var s tmCounters
	for _, t := range tr.threads {
		c := &t.win[1]
		s.atomics += c.atomics
		s.bodies += c.bodies
		s.atomicNs += c.atomicNs
		s.bodyNs += c.bodyNs
		s.outers += c.outers
		s.outerNs += c.outerNs
		s.reads += c.reads
		s.writes += c.writes
		s.timedReads += c.timedReads
		s.timedWrites += c.timedWrites
		s.readNs += c.readNs
		s.writeNs += c.writeNs
		for i := range c.readLines {
			s.readLines[i] += c.readLines[i]
			s.writeLines[i] += c.writeLines[i]
		}
		s.sessReads += c.sessReads
		s.sessReadAccesses += c.sessReadAccesses
		s.sessReadNs += c.sessReadNs
		s.timedSessReads += c.timedSessReads
		s.rmwNs += c.rmwNs
		s.timedSessRMWs += c.timedSessRMWs
	}
	return &s
}

// countQuantile is the nearest-rank q-quantile of a histogram whose
// index is the value.
func countQuantile(counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q*float64(total) + 0.999999)
	var cum uint64
	for v, c := range counts {
		cum += c
		if cum >= target {
			return float64(v)
		}
	}
	return float64(len(counts) - 1)
}

// writeSpans writes every kept span, oldest first per lane, one JSON
// object per line.
func (tr *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	rings := make([]*spanRing, 0, len(tr.threads)+len(tr.lanes))
	for _, t := range tr.threads {
		rings = append(rings, &t.ring)
	}
	rings = append(rings, tr.lanes...)
	for _, r := range rings {
		n := uint64(len(r.buf))
		first := uint64(0)
		if r.n > n {
			first = r.n - n
		}
		for i := first; i < r.n; i++ {
			if err := enc.Encode(&r.buf[i%n]); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
