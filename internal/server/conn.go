package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"sihtm/internal/wire"
)

var (
	errReadOnlyReplica = errors.New("server: read-only replica (not promoted)")
	errNotLeader       = errors.New("server: not a replication leader (no durable store)")
	errNotFollower     = errors.New("server: not a follower")
)

// hasWrite reports whether any op mutates — the replica's admission
// gate (read-only TXNs pass, everything else is refused until
// promotion).
func hasWrite(ops []wire.Op) bool {
	for _, op := range ops {
		if !op.Kind.ReadOnly() {
			return true
		}
	}
	return false
}

// connIO bundles a connection's pooled I/O state: the buffered reader
// and writer, the frame-read scratch buffer and the per-shard task
// chains, recycled together across connections through one pool so
// accepting a connection costs no per-side allocations in steady state.
type connIO struct {
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte // wire.ReadFrame scratch, grown in place

	// chains[i] links the tasks for shard i that the reader parsed since
	// its last hand-off. Reader-owned.
	chains []taskChain
	// replies[i] links shard i's current batch's replies to this
	// connection; only shard i's executor touches it.
	replies []replySlot
}

// taskChain is a singly linked run of tasks (task.next).
type taskChain struct {
	head, tail *task
	n          int
}

// replySlot is a taskChain alone on its cache line: two executors
// linking replies to the same connection write neighbouring slots.
type replySlot struct {
	taskChain
	_ [64 - unsafe.Sizeof(taskChain{})]byte
}

// reset sizes the chains for a server of the given shard count.
func (io *connIO) reset(shards int) {
	if len(io.chains) != shards {
		io.chains = make([]taskChain, shards)
		io.replies = make([]replySlot, shards)
	}
}

var connIOPool = sync.Pool{New: func() any {
	return &connIO{
		br:      bufio.NewReaderSize(nil, 4096),
		bw:      bufio.NewWriterSize(nil, 4096),
		scratch: make([]byte, 0, 4096),
	}
}}

// replyQueueDepth bounds a connection's queued messages, each one
// batch's replies to the connection (or one control-plane frame).
// Executors block on a full queue: the backpressure against a slow
// client and, while the writer holds a message for the log, against a
// stalled disk.
const replyQueueDepth = 256

// outMsg is one queued message: either a chain of pooled tasks from one
// batch whose reply buffers hold the encoded frames (data plane — the
// writer recycles the tasks after the write), or a standalone encoded
// frame (control plane).
type outMsg struct {
	t     *task
	frame []byte
}

// srvConn is one client connection: a reader goroutine parses frames
// and routes data-plane requests into shard queues (control-plane
// requests are answered inline), a writer goroutine streams encoded
// reply frames back with coalesced flushes. The connection closes once
// the reader has exited and every admitted task has been answered —
// the per-connection half of graceful drain.
type srvConn struct {
	srv *Server
	c   net.Conn
	io  *connIO
	out chan outMsg

	// inflight counts admitted-but-unanswered tasks; together with
	// readerGone it decides when out can close.
	inflight   atomic.Int64
	mu         sync.Mutex
	readerGone bool
	outClosed  bool
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	io := connIOPool.Get().(*connIO)
	io.br.Reset(nc)
	// The deadline sits under the buffer: it is armed once per socket
	// write, however many replies the write carries.
	io.bw.Reset(deadlineWriter{nc})
	io.reset(len(s.shards))
	return &srvConn{
		srv: s,
		c:   nc,
		io:  io,
		out: make(chan outMsg, replyQueueDepth),
	}
}

// send queues one encoded frame for the writer. Callers hold either the
// reader's liveness or an inflight reference, which is what guarantees
// out is not yet closed.
func (c *srvConn) send(frame []byte) { c.out <- outMsg{frame: frame} }

// sendTasks queues a chain of answered tasks from one batch: their
// reply buffers hold the encoded frames, and their inflight references
// are released by the writer after the write (the executor's obligation
// ends here).
func (c *srvConn) sendTasks(head *task) { c.out <- outMsg{t: head} }

// sendErr queues a TErr reply.
func (c *srvConn) sendErr(id uint64, err error) {
	c.send(wire.AppendFrame(nil, id, wire.TErr, []byte(err.Error())))
}

// sendEmptyReply queues an empty TReply (control-plane acknowledgement).
func (c *srvConn) sendEmptyReply(id uint64) {
	c.send(wire.AppendFrame(nil, id, wire.TReply, nil))
}

// tasksDone releases n inflight references.
func (c *srvConn) tasksDone(n int) {
	if c.inflight.Add(-int64(n)) == 0 {
		c.maybeCloseOut()
	}
}

// link appends a parsed task to its shard's chain.
func (c *srvConn) link(t *task) {
	ch := &c.io.chains[c.srv.shardFor(t.ops).id]
	if ch.head == nil {
		ch.head = t
	} else {
		ch.tail.next = t
	}
	ch.tail = t
	ch.n++
}

// handOff sends each shard the chain the reader linked for it, one
// channel send per shard. The reader calls it before every read that
// may block and before it exits, so a parsed task never waits behind a
// socket read.
func (c *srvConn) handOff() {
	for i := range c.io.chains {
		ch := &c.io.chains[i]
		if ch.head == nil {
			continue
		}
		c.inflight.Add(int64(ch.n))
		c.srv.shards[i].ch <- ch.head
		*ch = taskChain{}
	}
}

// readerExit marks the reader gone and closes out if nothing is in
// flight.
func (c *srvConn) readerExit() {
	c.mu.Lock()
	c.readerGone = true
	c.mu.Unlock()
	c.maybeCloseOut()
}

func (c *srvConn) maybeCloseOut() {
	c.mu.Lock()
	if c.readerGone && !c.outClosed && c.inflight.Load() == 0 {
		c.outClosed = true
		close(c.out)
	}
	c.mu.Unlock()
}

// readLoop parses and dispatches frames until the connection ends —
// client EOF, a framing violation (fatal by protocol) or drain (the
// deadline sweep unparks the read and the draining flag stops
// admission). Frames the buffer already holds whole are parsed in place;
// only when the next one is not all there does the reader hand its
// chains over and read the socket. The clock is read once per such
// read: that reading is the arrival time t0 of every frame it carried.
func (c *srvConn) readLoop() {
	pprof.SetGoroutineLabels(c.srv.labels.reader)
	defer func() {
		c.handOff()
		c.readerExit()
		c.srv.readers.Done()
	}()
	br := c.io.br
	var t0 time.Time
	for {
		if c.srv.draining.Load() {
			return
		}
		buffered, _ := br.Peek(br.Buffered())
		id, t, _, tr, payload, size, err := wire.ParseFrameT(buffered)
		if err == nil {
			br.Discard(size)
		} else if err == wire.ErrShortFrame {
			c.handOff()
			id, t, _, tr, payload, c.io.scratch, err = wire.ReadFrameT(br, c.io.scratch)
			t0 = time.Now()
		}
		if err != nil {
			return
		}
		c.srv.framesIn.Add(1)
		if t != wire.TTxn {
			// Control-plane frames are answered inline, after every TXN
			// parsed before them was handed over.
			c.handOff()
		}
		switch t {
		case wire.TTxn:
			// Decode straight into a pooled task's op slice; the task (ops,
			// results and reply buffers included) cycles reader → shard →
			// writer → pool, so a steady-state request allocates nothing.
			tsk := taskPool.Get().(*task)
			tsk.ops, err = wire.ParseOps(payload, tsk.ops[:0])
			if err != nil {
				taskPool.Put(tsk)
				c.sendErr(id, err)
				continue
			}
			if f := c.srv.cfg.Follower; f != nil && !f.Promoted() && hasWrite(tsk.ops) {
				taskPool.Put(tsk)
				c.sendErr(id, errReadOnlyReplica)
				continue
			}
			tsk.c = c
			tsk.id = id
			tsk.trace = tr
			tsk.t0 = t0
			c.link(tsk)

		case wire.TStats:
			c.send(wire.AppendFrame(nil, id, wire.TReply, wire.EncodeJSON(c.srv.Snapshot())))

		case wire.TCheck:
			// Quiesce the executors (batches run under RLock) — and, on a
			// replica, the replay applier — so the backend's structural
			// walk sees no transaction or half-applied record mid-flight.
			c.srv.execMu.Lock()
			if f := c.srv.cfg.Follower; f != nil {
				f.Lock()
			}
			err := c.srv.cfg.Backend.Check()
			if f := c.srv.cfg.Follower; f != nil {
				f.Unlock()
			}
			c.srv.execMu.Unlock()
			if err != nil {
				c.sendErr(id, err)
			} else {
				c.sendEmptyReply(id)
			}

		case wire.TReplSub:
			from, perr := wire.ParseReplSub(payload)
			if perr != nil {
				c.sendErr(id, perr)
				continue
			}
			if c.srv.pub == nil {
				c.sendErr(id, errNotLeader)
				continue
			}
			// The subscription hijacks the connection (protocol contract:
			// TReplSub is the only request ever sent on it), so the reader
			// goroutine itself becomes the stream pump, writing frames
			// straight to the socket until Drain closes drained.
			pprof.SetGoroutineLabels(c.srv.labels.publisher)
			c.srv.pub.Stream(deadlineWriter{c.c}, id, from, c.srv.drained)
			return

		case wire.TReplPromote:
			f := c.srv.cfg.Follower
			if f == nil {
				c.sendErr(id, errNotFollower)
				continue
			}
			if _, perr := f.Promote(c.srv.cfg.LeaderLogPath); perr != nil {
				c.sendErr(id, perr)
				continue
			}
			rs := f.Stats()
			c.send(wire.AppendFrame(nil, id, wire.TReply, wire.EncodeJSON(rs)))

		default:
			// Unknown types and the reserved codes 0x01–0x04 and 0x06
			// alike: the frame was well formed, so the connection stays
			// usable.
			c.sendErr(id, fmt.Errorf("server: unexpected message type %v", t))
		}
	}
}

// deadlineWriter arms writeTimeout before every socket write.
type deadlineWriter struct{ c net.Conn }

func (w deadlineWriter) Write(p []byte) (int, error) {
	if socketWrites != nil {
		socketWrites.Add(1)
	}
	w.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return w.c.Write(p)
}

// socketWrites, when set, counts every socket write a deadlineWriter
// makes. Only the package's tests set it.
var socketWrites *atomic.Uint64

// writeTimeout bounds each socket write: a client that stops reading
// (closed TCP window) errors its connection out instead of backing
// pressure up through the writer queue into the executors — which
// would otherwise wedge Drain forever behind one stalled peer.
const writeTimeout = 10 * time.Second

// writeLoop streams reply frames, each message once Server.release lets
// it go, flushing whenever the queue runs dry (coalesced flushes across
// messages). A message's replies share one ack wait and one clock read
// for their flush stage. A write error stops output but keeps draining
// the queue — releasing inflight references and recycling tasks — so
// executors never block on a dead connection.
// The writer exits last (out closes only after the reader is gone and
// inflight hits zero), so it owns returning the connection's pooled
// I/O state.
func (c *srvConn) writeLoop() {
	pprof.SetGoroutineLabels(c.srv.labels.writer)
	defer func() {
		c.c.Close()
		c.io.br.Reset(nil)
		c.io.bw.Reset(nil)
		connIOPool.Put(c.io)
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.srv.writers.Done()
	}()
	s := c.srv
	bw := c.io.bw
	var werr error
	for m := range c.out {
		head := m.t
		if head == nil {
			if werr == nil {
				if _, werr = bw.Write(m.frame); werr == nil && len(c.out) == 0 {
					werr = bw.Flush()
				}
				s.framesOut.Add(1)
			}
			continue
		}
		// Before waiting for the log, send what is buffered: it may
		// leave now, and would otherwise wait an fsync behind this one.
		if werr == nil && bw.Buffered() > 0 && head.stamp != 0 && s.cfg.Store.DurableSeq() < head.stamp {
			werr = bw.Flush()
		}
		s.release(head)
		n := 0
		for t := head; t != nil; t = t.next {
			n++
			if werr == nil {
				_, werr = bw.Write(t.reply)
			}
		}
		if werr == nil {
			if len(c.out) == 0 {
				werr = bw.Flush()
			}
			s.framesOut.Add(uint64(n))
		}
		// Close the lifecycle traces at the socket write: flush stage,
		// then span emission for sampled or slow requests.
		tw := time.Now()
		for t := head; t != nil; {
			s.flushHist.Observe(tw.Sub(t.tDone) - time.Duration(t.ackNs))
			total := tw.Sub(t.t0)
			if t.trace != 0 || s.traceSlow > 0 && int64(total) >= s.traceSlow {
				s.recordSpans(t, total)
			}
			next := t.next
			t.next = nil
			taskPool.Put(t)
			t = next
		}
		c.tasksDone(n)
	}
	if werr == nil {
		bw.Flush()
	}
}
