// Package netchaos is the fault-injection layer for the networked
// tests, in the mould of internal/tmtest: a net.Conn wrapper driven by
// a seeded deterministic schedule that kills connections after a drawn
// number of I/O calls (optionally tearing the final write or read so
// the peer sees a partial frame) and refuses dials for a drawn window
// after each kill (a partition). Because the schedule is drawn from
// internal/rng with a caller-chosen seed and advances on I/O counts —
// never wall-clock — a test that fails under a given seed fails the
// same way every run.
//
// The replication tests are the package's reason to exist: a follower
// dialing its leader through a chaos Dialer loses the stream at seeded
// points, sits out seeded partition windows, and must reconnect and
// resume from its own watermark without ever diverging.
package netchaos

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"sihtm/internal/rng"
)

// ErrInjected is the error returned by I/O on a connection the
// schedule has killed.
var ErrInjected = errors.New("netchaos: injected fault")

// ErrPartitioned is the error returned by Dial during a partition
// window.
var ErrPartitioned = errors.New("netchaos: partitioned")

// Config is a chaos schedule. Zero values disable each fault class.
type Config struct {
	// Seed drives every draw; equal seeds give equal schedules.
	Seed uint64
	// CutAfterMin/Max bound the per-connection I/O-call budget: each
	// connection dies after a drawn number of Read/Write calls in
	// [Min, Max]. 0 Max disables cuts.
	CutAfterMin, CutAfterMax int
	// TearProb (0..1) is the chance a cut tears — the final Write
	// delivers only a prefix of its buffer (the peer parses a torn
	// frame), or the final Read returns a truncated count.
	TearProb float64
	// PartitionMin/Max bound the dial-refusal window after each cut:
	// the next drawn number of Dial calls fail with ErrPartitioned.
	PartitionMin, PartitionMax int
}

// Dialer dials through the chaos schedule. All randomness is drawn
// under the dialer's lock from one seeded stream, so concurrent use is
// safe and the schedule is a pure function of the seed and the order
// of draws.
type Dialer struct {
	addr string
	cfg  Config

	mu     sync.Mutex
	r      *rng.Rand
	refuse int // dials left to refuse (partition window)

	dials   atomic.Uint64
	refused atomic.Uint64
	cuts    atomic.Uint64
	tears   atomic.Uint64
}

// NewDialer builds a chaos dialer for addr.
func NewDialer(addr string, cfg Config) *Dialer {
	return &Dialer{addr: addr, cfg: cfg, r: rng.New(cfg.Seed)}
}

// Dial opens one connection through the schedule, or refuses it inside
// a partition window.
func (d *Dialer) Dial() (net.Conn, error) {
	d.dials.Add(1)
	d.mu.Lock()
	if d.refuse > 0 {
		d.refuse--
		d.mu.Unlock()
		d.refused.Add(1)
		return nil, ErrPartitioned
	}
	budget := -1
	if d.cfg.CutAfterMax > 0 {
		lo, hi := d.cfg.CutAfterMin, d.cfg.CutAfterMax
		if lo < 1 {
			lo = 1
		}
		budget = lo
		if hi > lo {
			budget = lo + d.r.Intn(hi-lo)
		}
	}
	tear := d.cfg.TearProb > 0 && float64(d.r.Intn(1000))/1000 < d.cfg.TearProb
	d.mu.Unlock()

	nc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	return &chaosConn{Conn: nc, d: d, budget: budget, tear: tear}, nil
}

// noteCut records a kill and opens the partition window that follows.
func (d *Dialer) noteCut() {
	d.cuts.Add(1)
	if d.cfg.PartitionMax <= 0 {
		return
	}
	d.mu.Lock()
	w := d.cfg.PartitionMin
	if d.cfg.PartitionMax > w {
		w += d.r.Intn(d.cfg.PartitionMax - w)
	}
	if w > d.refuse {
		d.refuse = w
	}
	d.mu.Unlock()
}

// tearLen draws the surviving prefix of a torn buffer.
func (d *Dialer) tearLen(n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= 1 {
		return 0
	}
	return 1 + d.r.Intn(n-1)
}

// Dials, Refused, Cuts and Tears expose the schedule's activity for
// test assertions ("the chaos actually bit").
func (d *Dialer) Dials() uint64   { return d.dials.Load() }
func (d *Dialer) Refused() uint64 { return d.refused.Load() }
func (d *Dialer) Cuts() uint64    { return d.cuts.Load() }
func (d *Dialer) Tears() uint64   { return d.tears.Load() }

// chaosConn is one scheduled connection. budget counts I/O calls until
// the kill (-1 = never); the mutex serializes the budget against the
// usual reader/writer goroutine pair.
type chaosConn struct {
	net.Conn
	d      *Dialer
	mu     sync.Mutex
	budget int
	tear   bool
	dead   bool
}

// charge spends one I/O call; reports whether this call is the cut.
func (c *chaosConn) charge() (cut, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, true
	}
	if c.budget >= 0 {
		c.budget--
		if c.budget < 0 {
			c.dead = true
			return true, false
		}
	}
	return false, false
}

func (c *chaosConn) Read(p []byte) (int, error) {
	cut, dead := c.charge()
	if dead {
		return 0, ErrInjected
	}
	if cut {
		if c.tear && len(p) > 1 {
			// Deliver a truncated read so the consumer's framing sees a
			// torn frame before the connection dies.
			k := c.d.tearLen(len(p))
			n, _ := c.Conn.Read(p[:k])
			c.d.tears.Add(1)
			c.d.noteCut()
			c.Conn.Close()
			return n, nil
		}
		c.d.noteCut()
		c.Conn.Close()
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	cut, dead := c.charge()
	if dead {
		return 0, ErrInjected
	}
	if cut {
		if c.tear && len(p) > 1 {
			// Flush a prefix so the peer's parser chews on a torn frame.
			k := c.d.tearLen(len(p))
			c.Conn.Write(p[:k])
			c.d.tears.Add(1)
		}
		c.d.noteCut()
		c.Conn.Close()
		return 0, ErrInjected
	}
	return c.Conn.Write(p)
}

func (c *chaosConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.Conn.Close()
}
