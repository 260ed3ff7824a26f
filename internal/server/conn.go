package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
// and writer plus the frame-read scratch buffer, recycled together
// across connections through one pool so accepting a connection costs
// no per-side allocations in steady state.
type connIO struct {
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte // wire.ReadFrame scratch, grown in place
}

var connIOPool = sync.Pool{New: func() any {
	return &connIO{
		br:      bufio.NewReaderSize(nil, 4096),
		bw:      bufio.NewWriterSize(nil, 4096),
		scratch: make([]byte, 0, 4096),
	}
}}

// replyQueueDepth bounds a connection's queued replies. Executors block
// on a full queue: the backpressure against a slow client and, while
// the writer holds a reply for the log, against a stalled disk.
const replyQueueDepth = 256

// outMsg is one queued reply: either a pooled task whose reply buffer
// holds the encoded frame (data plane — the writer recycles the task
// after the write), or a standalone encoded frame (control plane).
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
	io.bw.Reset(nc)
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

// sendTask queues an answered task: its reply buffer holds the encoded
// frame, and its inflight reference is released by the writer after the
// write (the executor's obligation ends here).
func (c *srvConn) sendTask(t *task) { c.out <- outMsg{t: t} }

// sendErr queues a TErr reply.
func (c *srvConn) sendErr(id uint64, err error) {
	c.send(wire.AppendFrame(nil, id, wire.TErr, []byte(err.Error())))
}

// sendEmptyReply queues an empty TReply (control-plane acknowledgement).
func (c *srvConn) sendEmptyReply(id uint64) {
	c.send(wire.AppendFrame(nil, id, wire.TReply, nil))
}

// taskDone releases one inflight reference.
func (c *srvConn) taskDone() {
	if c.inflight.Add(-1) == 0 {
		c.maybeCloseOut()
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
// admission).
func (c *srvConn) readLoop() {
	defer func() {
		c.readerExit()
		c.srv.readers.Done()
	}()
	br := c.io.br
	for {
		if c.srv.draining.Load() {
			return
		}
		var (
			id      uint64
			t       wire.Type
			tr      uint64
			payload []byte
			err     error
		)
		id, t, _, tr, payload, c.io.scratch, err = wire.ReadFrameT(br, c.io.scratch)
		if err != nil {
			return
		}
		c.srv.framesIn.Add(1)
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
			tsk.t0 = time.Now()
			c.inflight.Add(1)
			c.srv.shardFor(tsk.ops).ch <- tsk

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
	w.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return w.c.Write(p)
}

// writeTimeout bounds each reply write: a client that stops reading
// (closed TCP window) errors its connection out instead of backing
// pressure up through the writer queue into the executors — which
// would otherwise wedge Drain forever behind one stalled peer.
const writeTimeout = 10 * time.Second

// writeLoop streams reply frames, each task once Server.release lets it
// go, flushing whenever the queue runs dry (coalesced flushes across
// pipelined replies). A write error stops output but keeps draining the
// queue — releasing inflight references and recycling tasks — so
// executors never block on a dead connection.
// The writer exits last (out closes only after the reader is gone and
// inflight hits zero), so it owns returning the connection's pooled
// I/O state.
func (c *srvConn) writeLoop() {
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
	bw := c.io.bw
	var werr error
	for m := range c.out {
		frame := m.frame
		if m.t != nil {
			frame = m.t.reply
			// Before waiting for the log, send what is buffered: it may
			// leave now, and would otherwise wait an fsync behind this one.
			if werr == nil && bw.Buffered() > 0 && m.t.stamp != 0 && c.srv.cfg.Store.DurableSeq() < m.t.stamp {
				werr = bw.Flush()
			}
			c.srv.release(m.t)
		}
		if werr == nil {
			c.c.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := bw.Write(frame); err != nil {
				werr = err
			} else if len(c.out) == 0 {
				if err := bw.Flush(); err != nil {
					werr = err
				}
			}
			c.srv.framesOut.Add(1)
		}
		if m.t != nil {
			// Close the lifecycle trace at the socket write: flush stage,
			// then span emission for sampled or slow requests.
			c.srv.flushHist.Observe(time.Since(m.t.tDone) - time.Duration(m.t.ackNs))
			total := time.Since(m.t.t0)
			if m.t.trace != 0 || c.srv.traceSlow > 0 && int64(total) >= c.srv.traceSlow {
				c.srv.recordSpans(m.t, total)
			}
			taskPool.Put(m.t)
			c.taskDone()
		}
	}
	if werr == nil {
		c.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		bw.Flush()
	}
}
