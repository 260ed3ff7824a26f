package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	inflightSlots = 1 << 16 // open-loop requests one connection can have outstanding
	minFrameBytes = 24      // header + CRC of an empty frame
	// drainGrace is how long a phase waits for replies once it has stopped
	// sending. Only a stalled host makes it wait at all; 2 s was once too
	// short on a shared disk, and the requests still in flight then
	// committed during the follower check.
	drainGrace = 20 * time.Second
)

// clientConn is the benchmark's own pipelined client for one connection.
// Every request is a TXN frame carrying one op (GET or RMW +1), encoded
// with wire.AppendOpsFrame; replies are matched by request id.
type clientConn struct {
	c       net.Conn
	cc      *countingConn // non-nil in the traced run
	br      *bufio.Reader
	plan    plan
	pos     int
	gaps    []uint32
	gapPos  int
	out     []byte
	scratch []byte
	results []WireResult
	op      [1]WireOp
	nextID  uint64
	limit   int64 // ns

	// inflight[id % inflightSlots] holds scheduled-send time << 1 | isRMW
	// of an outstanding request, 0 when free. The sender stores, the
	// reader swaps to 0: the slot is the only state they share.
	inflight []atomic.Int64

	// Totals over the connection's life, for check 2. Each is written by
	// one goroutine and read after it stopped.
	sentRMW, ackedRMW uint64
	errReplies        uint64

	tr *clientTrace // nil untraced
}

// clientTrace is the traced run's per-connection state.
type clientTrace struct {
	tr   *tracer
	lane uint64
	ring *spanRing // written by whichever goroutine reads replies
	// stamps of the sampled request in flight, by id % len: encode start,
	// encode end, write start, write end.
	stamps            []atomic.Int64
	encodeNs, parseNs int64
	encodes, parses   uint64
}

func dialClient(addr string, p plan, gaps []uint32, limit time.Duration, tr *tracer) (*clientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &clientConn{
		c: nc, plan: p, gaps: gaps, limit: int64(limit),
		out:      make([]byte, 0, 1<<16),
		scratch:  make([]byte, 0, 4096),
		results:  make([]WireResult, 0, 4),
		inflight: make([]atomic.Int64, inflightSlots),
		nextID:   1,
	}
	if tr != nil {
		c.cc = &countingConn{Conn: nc}
		c.c = c.cc
		ct := &clientTrace{tr: tr, stamps: make([]atomic.Int64, 4*1024)}
		ct.ring, ct.lane = tr.newLane()
		c.tr = ct
	}
	c.br = bufio.NewReaderSize(c.c, 1<<16)
	return c, nil
}

// encodeNext appends the next planned request to c.out and returns its id
// and whether it is an RMW.
func (c *clientConn) encodeNext() (id uint64, rmw bool) {
	op := c.plan[c.pos]
	c.pos = (c.pos + 1) & (len(c.plan) - 1)
	id = c.nextID
	c.nextID++
	rmw = op&rmwBit != 0
	c.op[0] = WireOp{Kind: OpGet, Key: uint64(op &^ rmwBit)}
	if rmw {
		c.op[0] = WireOp{Kind: OpRMW, Key: uint64(op &^ rmwBit), Arg: 1}
		c.sentRMW++
	}
	if ct := c.tr; ct != nil && id&spanSampleMask == 0 {
		t0 := ct.tr.now()
		c.out = AppendOpsFrame(c.out, id, c.op[:])
		t1 := ct.tr.now()
		ct.encodeNs += t1 - t0
		ct.encodes++
		st := ct.stamps[4*(id>>6&1023):]
		st[0].Store(t0)
		st[1].Store(t1)
	} else {
		c.out = AppendOpsFrame(c.out, id, c.op[:])
	}
	return id, rmw
}

// flush writes the encoded requests to the socket.
func (c *clientConn) flush(firstID uint64) error {
	if len(c.out) == 0 {
		return nil
	}
	var err error
	if ct := c.tr; ct != nil {
		t0 := ct.tr.now()
		_, err = c.c.Write(c.out)
		t1 := ct.tr.now()
		// Stamp every sampled request this write carried.
		for id := (firstID + spanSampleMask) &^ spanSampleMask; id < c.nextID; id += spanSampleMask + 1 {
			st := ct.stamps[4*(id>>6&1023):]
			st[2].Store(t0)
			st[3].Store(t1)
		}
	} else {
		_, err = c.c.Write(c.out)
	}
	c.out = c.out[:0]
	return err
}

// readReply reads one reply frame and reports whether it answers its
// request with one successful result.
func (c *clientConn) readReply() (id uint64, ok bool, err error) {
	var typ WireType
	var payload []byte
	id, typ, payload, c.scratch, err = ReadFrame(c.br, c.scratch)
	if err != nil {
		return 0, false, err
	}
	if typ != TReply {
		c.errReplies++
		return id, false, nil
	}
	if ct := c.tr; ct != nil && id&spanSampleMask == 0 {
		t0 := ct.tr.now()
		c.results, err = ParseResults(payload, c.results)
		t1 := ct.tr.now()
		ct.parseNs += t1 - t0
		ct.parses++
		ct.emitRequest(id, t0, t1)
	} else {
		c.results, err = ParseResults(payload, c.results)
	}
	if err != nil {
		return id, false, err
	}
	return id, len(c.results) == 1 && c.results[0].OK, nil
}

// emitRequest writes the spans of one sampled request: req covers encode
// start to parsed reply, its children tile it.
func (ct *clientTrace) emitRequest(id uint64, parse0, parse1 int64) {
	st := ct.stamps[4*(id>>6&1023):]
	enc0, enc1, w0, w1 := st[0].Load(), st[1].Load(), st[2].Load(), st[3].Load()
	tx := ct.lane<<40 | id
	req := tx | 1<<39
	ct.ring.add(span{ID: req, Tx: tx, Name: "req", Start: enc0, End: parse1})
	ct.ring.add(span{ID: tx | 1<<38, Parent: req, Tx: tx, Name: "wire.encode", Start: enc0, End: enc1})
	ct.ring.add(span{ID: tx | 1<<37, Parent: req, Tx: tx, Name: "sock.write", Start: w0, End: w1})
	ct.ring.add(span{ID: tx | 1<<36, Parent: req, Tx: tx, Name: "wait", Start: w1, End: parse0})
	ct.ring.add(span{ID: tx | 1<<35, Parent: req, Tx: tx, Name: "wire.parse", Start: parse0, End: parse1})
}

// issue encodes the next planned request and marks it in flight with the
// time it was due (any nonzero time in the closed loop).
func (c *clientConn) issue(sched int64) error {
	slot := &c.inflight[c.nextID%inflightSlots]
	if slot.Load() != 0 {
		// 65536 requests later the slot's owner is still unanswered: the
		// server has collapsed.
		return errors.New("client: request unanswered after 65536 successors")
	}
	_, rmw := c.encodeNext()
	v := sched << 1
	if rmw {
		v |= 1
	}
	slot.Store(v)
	return nil
}

// settle matches a reply to its request and returns when that was due.
func (c *clientConn) settle(id uint64, ok bool) (sched int64, err error) {
	v := c.inflight[id%inflightSlots].Swap(0)
	if v == 0 {
		return 0, fmt.Errorf("client: reply to unknown request %d", id)
	}
	if ok && v&1 != 0 {
		c.ackedRMW++
	}
	return v >> 1, nil
}

// closedLoop is phase A on one connection: closedLoopDepth requests
// outstanding, a new one issued for every reply, new requests written
// whenever no further reply is already buffered. One goroutine does both
// directions.
func (c *clientConn) closedLoop(clk *sliceClock, slices int, sd []sliceData) error {
	first := c.nextID
	for i := 0; i < closedLoopDepth; i++ {
		if err := c.issue(1); err != nil {
			return err
		}
	}
	if err := c.flush(first); err != nil {
		return err
	}
	first = c.nextID
	c.c.SetReadDeadline(time.Time{})
	for outstanding := closedLoopDepth; outstanding > 0; {
		id, ok, err := c.readReply()
		if err != nil {
			return err
		}
		if _, err := c.settle(id, ok); err != nil {
			return err
		}
		outstanding--
		s := int(clk.idx.Load())
		if s >= 0 && s < slices {
			sd[s].attempted++
			if ok {
				sd[s].done++
			} else {
				sd[s].failed++
			}
		}
		if s < slices {
			if err := c.issue(1); err != nil {
				return err
			}
			outstanding++
		} else {
			// The phase is over: stop issuing, collect what is in flight,
			// but not forever.
			c.c.SetReadDeadline(time.Now().Add(drainGrace))
		}
		if c.br.Buffered() < minFrameBytes {
			if err := c.flush(first); err != nil {
				return err
			}
			first = c.nextID
		}
	}
	return nil
}

// openTiming places an open-loop phase on the tracer-independent clock of
// the phase: nanoseconds since base.
type openTiming struct {
	base           time.Time
	measure0, end  int64 // first measured arrival, end of the last slice
	slice          int64
	sent, received atomic.Uint64
}

func (ot *openTiming) now() int64 { return int64(time.Since(ot.base)) }

func (ot *openTiming) sliceOf(sched int64) int {
	if sched < ot.measure0 {
		return warmupSlice
	}
	return int((sched - ot.measure0) / ot.slice)
}

// openSender is phase B's generator on one connection: Poisson arrivals
// on a fixed schedule, every request due is sent, however late; latency
// is later taken from the scheduled time, so a stalled generator shows as
// latency instead of hiding it (no coordinated omission).
type openSender struct {
	attempted  []uint64 // requests scheduled per slice
	late       []int64  // ns behind schedule at the write, measured slices
	sentInTime uint64   // scheduled in a measured slice and written before the last one ended
}

func (c *clientConn) openSend(ot *openTiming, snd *openSender) error {
	// Paced with time.Sleep. Three other pacers were measured on this
	// host (README.md, "Pacing"): nanosleep on a locked thread, a yielding
	// spin and a timerfd all sent closer to schedule, and all three made
	// the latencies they were meant to sharpen two to six times less
	// repeatable from run to run.
	sched := int64(c.gaps[c.gapPos]) + 1
	for sched < ot.end {
		now := ot.now()
		if now < sched {
			time.Sleep(time.Duration(sched - now))
			continue
		}
		first := c.nextID
		for sched <= now && sched < ot.end {
			if err := c.issue(sched); err != nil {
				return err
			}
			if s := ot.sliceOf(sched); s >= 0 {
				snd.attempted[s]++
				if now < ot.end {
					snd.sentInTime++
				}
				if len(snd.late) < cap(snd.late) {
					snd.late = append(snd.late, now-sched)
				}
			}
			c.gapPos = (c.gapPos + 1) & (len(c.gaps) - 1)
			sched += int64(c.gaps[c.gapPos]) + 1 // +1: schedule times are nonzero and strictly increasing
		}
		ot.sent.Add(c.nextID - first)
		if err := c.flush(first); err != nil {
			return err
		}
	}
	return nil
}

// openReceive is phase B's reader on one connection. It returns when the
// connection's read deadline fires (the main goroutine sets it once
// everything sent is answered or the grace period is over).
func (c *clientConn) openReceive(ot *openTiming, sd []sliceData, rec *recorder) error {
	for {
		id, ok, err := c.readReply()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return err
		}
		now := ot.now()
		ot.received.Add(1)
		sched, err := c.settle(id, ok)
		if err != nil {
			return err
		}
		s := ot.sliceOf(sched)
		if s < 0 {
			continue
		}
		if !ok {
			sd[s].failed++
			continue
		}
		sd[s].done++
		lat := now - sched
		rec.add(s, lat)
		if lat <= c.limit {
			sd[s].within++
		}
	}
}

// netClient is the set of connections of one run.
type netClient struct {
	conns []*clientConn
}

func dialAll(n *node, seed uint64, plans []plan, tr *tracer) (*netClient, error) {
	nc := &netClient{}
	for i := 0; i < loadThreads; i++ {
		c, err := dialClient(n.addr, plans[i], genGaps(seed, i, n.wl.rate/loadThreads), n.wl.limit, tr)
		if err != nil {
			nc.close()
			return nil, err
		}
		nc.conns = append(nc.conns, c)
	}
	return nc, nil
}

func (nc *netClient) close() {
	for _, c := range nc.conns {
		c.c.Close()
	}
}

// rmwCounts returns the RMWs sent and acknowledged over all connections.
func (nc *netClient) rmwCounts() (sent, acked uint64) {
	for _, c := range nc.conns {
		sent += c.sentRMW
		acked += c.ackedRMW
	}
	return sent, acked
}

// runClosed runs phase A.
func (nc *netClient) runClosed(pt phaseTiming, atEdge func(int)) (*phaseData, error) {
	var clk sliceClock
	clk.idx.Store(warmupSlice)
	per := make([][]sliceData, len(nc.conns))
	errs := make([]error, len(nc.conns))
	var wg sync.WaitGroup
	for i, c := range nc.conns {
		per[i] = make([]sliceData, pt.slices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.closedLoop(&clk, pt.slices, per[i])
		}()
	}
	e := pt.runSlices(&clk, atEdge)
	wg.Wait()
	p := &phaseData{slices: make([]sliceData, pt.slices)}
	e.fill(p)
	for s := range p.slices {
		for i := range per {
			p.slices[s].done += per[i][s].done
			p.slices[s].attempted += per[i][s].attempted
			p.slices[s].failed += per[i][s].failed
		}
	}
	return p, errors.Join(errs...)
}

// runOpen runs phase B.
func (nc *netClient) runOpen(pt phaseTiming, rate float64, atEdge func(int)) (*phaseData, error) {
	ot := &openTiming{
		base:     time.Now(),
		measure0: int64(pt.warmup),
		slice:    int64(pt.slice),
	}
	ot.end = ot.measure0 + int64(pt.slices)*ot.slice
	n := len(nc.conns)
	perSlice := int(rate/float64(n)*pt.slice.Seconds()*1.5) + 4096
	senders := make([]*openSender, n)
	recs := make([]*recorder, n)
	per := make([][]sliceData, n)
	sendErrs := make([]error, n)
	recvErrs := make([]error, n)
	var sendWG, recvWG sync.WaitGroup
	for i, c := range nc.conns {
		senders[i] = &openSender{
			attempted: make([]uint64, pt.slices),
			late:      make([]int64, 0, perSlice*pt.slices),
		}
		recs[i] = newRecorder(pt.slices, perSlice)
		per[i] = make([]sliceData, pt.slices)
		c.c.SetReadDeadline(time.Time{})
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			sendErrs[i] = c.openSend(ot, senders[i])
		}()
		recvWG.Add(1)
		go func() {
			defer recvWG.Done()
			recvErrs[i] = c.openReceive(ot, per[i], recs[i])
		}()
	}

	// The schedule, not the main goroutine, decides which slice a request
	// belongs to; the main goroutine only stamps CPU at the same edges.
	var e edges
	for s := 0; s <= pt.slices; s++ {
		time.Sleep(time.Until(ot.base.Add(time.Duration(ot.measure0 + int64(s)*ot.slice))))
		e.wall = append(e.wall, time.Now())
		e.cpu = append(e.cpu, cpuTime())
		if atEdge != nil {
			atEdge(s)
		}
	}
	sendWG.Wait()
	// Collect replies still in flight, but not forever: what stays
	// unanswered counts as failed.
	for deadline := time.Now().Add(drainGrace); ot.received.Load() < ot.sent.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, c := range nc.conns {
		c.c.SetReadDeadline(time.Now())
	}
	recvWG.Wait()

	p := &phaseData{slices: make([]sliceData, pt.slices)}
	e.fill(p)
	for i := range nc.conns {
		p.sent += senders[i].sentInTime
		p.late = append(p.late, senders[i].late...)
		if recs[i].dropped > 0 {
			recvErrs[i] = errors.Join(recvErrs[i], fmt.Errorf("open loop: %d latency samples did not fit the recorder", recs[i].dropped))
		}
	}
	slices.Sort(p.late)
	for s := range p.slices {
		sd := &p.slices[s]
		sd.lat = mergeSorted(recs, s)
		for i := range nc.conns {
			sd.attempted += senders[i].attempted[s]
			sd.done += per[i][s].done
			sd.within += per[i][s].within
		}
		// Refused, failed and never answered all count as attempts that
		// missed: whatever was scheduled and did not complete failed.
		sd.failed = sd.attempted - sd.done
		sd.limitBase = sd.attempted
		p.offered += sd.attempted
	}
	return p, errors.Join(errors.Join(sendErrs...), errors.Join(recvErrs...))
}
