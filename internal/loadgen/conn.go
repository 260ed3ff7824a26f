package loadgen

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"time"

	"sihtm/internal/wire"
)

// loadConn is one generator connection: an independent sender driving
// its share of the arrival process and a receiver turning echoed ids
// back into latencies.
type loadConn struct {
	g  *gen
	nc net.Conn
	bw *bufio.Writer

	// meanNs is the mean inter-arrival gap of this connection's share
	// of the total rate, in nanoseconds.
	meanNs float64
	// firstNs staggers connection start offsets across one mean gap so
	// the ramp does not begin with a synchronized burst.
	firstNs float64
	rng     rng
}

// newLoadConn splits the run's arrival process across connections.
func newLoadConn(g *gen, nc net.Conn, idx int) *loadConn {
	mean := float64(time.Second) * float64(g.cfg.Conns) / g.cfg.Arrival.Rate
	return &loadConn{
		g:       g,
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 4096),
		meanNs:  mean,
		firstNs: mean * float64(idx) / float64(g.cfg.Conns),
		rng:     rng{state: g.cfg.Seed ^ (uint64(idx)*0x9e3779b97f4a7c15 + 1)},
	}
}

// gap draws one inter-arrival time in nanoseconds.
func (c *loadConn) gap() float64 {
	if c.g.cfg.Arrival.Process == "poisson" {
		return c.meanNs * c.rng.exp()
	}
	return c.meanNs
}

// sendLoop runs the open-loop schedule: draw the next arrival, sleep
// until it, send a request whose id IS the scheduled time. When the
// loop falls behind (server backpressure filled the socket buffer, or
// the host is out of CPU), it sends immediately but keeps the original
// schedule — subsequent arrivals are not pushed back, and the id still
// carries the scheduled time, so queueing delay is charged to latency
// instead of silently omitted.
func (c *loadConn) sendLoop() {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	next := c.firstNs + c.gap() // scheduled offset from epoch, ns
	ops := [1]wire.Op{}
	var buf []byte
	for {
		sched := time.Duration(next)
		if d := sched - time.Since(c.g.epoch); d > 0 {
			if timer == nil {
				timer = time.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			select {
			case <-c.g.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-c.g.stop:
				return
			default:
			}
			if lag := -d; lag > time.Duration(c.g.maxLag.Load()) {
				c.g.maxLag.Store(int64(lag))
			}
		}
		key := c.rng.next() % uint64(c.g.cfg.Keys)
		if c.rng.float() < c.g.cfg.ReadFrac {
			ops[0] = wire.Op{Kind: wire.OpGet, Key: key}
		} else {
			ops[0] = wire.Op{Kind: wire.OpRMW, Key: key, Arg: 1}
		}
		// Sampled requests carry a trace id in the frame extension; the
		// request id stays the scheduled send time, so CO-safe latency
		// accounting and tracing compose.
		var tr uint64
		if c.g.sampler.Sample() {
			tr = c.g.ids.Next()
		}
		buf = wire.AppendOpsFrameT(buf[:0], uint64(sched), tr, ops[:])
		if _, err := c.bw.Write(buf); err != nil {
			c.g.fail(err)
			return
		}
		if err := c.bw.Flush(); err != nil {
			c.g.fail(err)
			return
		}
		c.g.sent.Add(1)
		next += c.gap()
	}
}

// recvLoop demultiplexes nothing: every reply's id is its request's
// scheduled send time, so latency is now − id directly.
func (c *loadConn) recvLoop() {
	var buf []byte
	for {
		id, t, _, nbuf, err := wire.ReadFrame(c.nc, buf)
		if err != nil {
			if !c.g.stopped.Load() && !errors.Is(err, io.EOF) {
				c.g.fail(err)
			}
			return
		}
		buf = nbuf
		switch t {
		case wire.TReply:
			c.g.hist.Observe(time.Since(c.g.epoch) - time.Duration(id))
			c.g.replies.Add(1)
		case wire.TErr:
			c.g.errs.Add(1)
		}
	}
}

// rng is a splitmix64 stream: deterministic per connection, allocation
// free, and good enough for arrival gaps and key draws.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9f9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns a unit-mean exponential draw.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }
