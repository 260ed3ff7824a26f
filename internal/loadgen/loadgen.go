// Package loadgen drives a wire-protocol server with an open-loop,
// many-connection workload: arrivals are scheduled by a rate process
// (Poisson or uniform), not by reply receipt, so a slow server faces a
// growing backlog exactly as it would from real independent clients —
// the closed-loop drivers of the workload engine can never show that,
// because each blocked session stops offering load the moment the
// server stalls (coordinated omission).
//
// Latency accounting is coordinated-omission-safe by construction: the
// request id of every frame is its *scheduled* send time (nanoseconds
// since the run epoch), stamped when the arrival was drawn, not when
// the send syscall finally happened. The server echoes ids verbatim,
// so the receiver computes latency as now − id with no per-request
// bookkeeping: a request that sat behind a backlog is charged its full
// queueing delay even though the sender fell behind schedule.
package loadgen

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/stats"
	"sihtm/internal/trace"
)

// Arrival is the open-loop arrival process: Rate operations per second
// in total, split evenly across the connections, with Poisson
// (exponential gaps) or uniform (constant gaps) inter-arrival times.
type Arrival struct {
	// Process is "poisson" or "uniform".
	Process string
	// Rate is the total offered operation rate per second.
	Rate float64
}

// ParseArrival parses the CLI form "poisson:RATE" or "uniform:RATE".
func ParseArrival(s string) (Arrival, error) {
	proc, rateStr, ok := strings.Cut(s, ":")
	if !ok {
		return Arrival{}, fmt.Errorf("loadgen: arrival %q: want process:rate (e.g. poisson:20000)", s)
	}
	if proc != "poisson" && proc != "uniform" {
		return Arrival{}, fmt.Errorf("loadgen: unknown arrival process %q (want poisson or uniform)", proc)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate <= 0 || math.IsInf(rate, 0) {
		return Arrival{}, fmt.Errorf("loadgen: arrival rate %q: want a positive ops/sec", rateStr)
	}
	return Arrival{Process: proc, Rate: rate}, nil
}

// String renders the CLI form back.
func (a Arrival) String() string { return fmt.Sprintf("%s:%g", a.Process, a.Rate) }

// Config shapes one open-loop run.
type Config struct {
	// Addr is the server address.
	Addr string
	// Conns is the connection count; each connection carries an equal
	// share of the arrival rate with its own sender and receiver.
	Conns int
	// Arrival is the offered-load process.
	Arrival Arrival
	// Keys is the populated keyspace size; request keys are drawn
	// uniformly below it, so the RMW/GET mix never inserts fresh keys
	// and the server's population-conservation check stays valid.
	Keys int
	// ReadFrac is the GET share of the mix (default 0.5); the rest are
	// server-side read-modify-writes.
	ReadFrac float64
	// Warmup and Measure carve the measurement window: counters and the
	// latency histogram are snapshotted at both edges and differenced.
	Warmup, Measure time.Duration
	// Seed perturbs the per-connection arrival and key streams.
	Seed uint64
	// AtWindow, when set, is called synchronously at the two window
	// edges (start=true at warmup end, start=false at measure end) so a
	// caller can snapshot server-side stats over exactly the client's
	// window.
	AtWindow func(start bool)
	// TraceEvery, when positive, stamps every n-th request with a fresh
	// trace id (head-based sampling; 1 traces everything). The id rides
	// the frame's trace extension — the request id keeps carrying the
	// scheduled send time, so coordinated-omission accounting is
	// untouched. The generator ships ids only: the server's stage spans
	// carry them, and no client span is recorded.
	TraceEvery int
}

// dialConcurrency bounds parallel dials during ramp-up.
const dialConcurrency = 64

// Result is one run's measurement, all counters restricted to the
// measurement window.
type Result struct {
	// Conns and Offered echo the config.
	Conns   int
	Offered float64
	// Elapsed is the measured window length.
	Elapsed time.Duration
	// Sent, Replies and Errs count requests written, successful replies
	// and TErr replies during the window.
	Sent, Replies, Errs uint64
	// Throughput is Replies per second.
	Throughput float64
	// Hist is the client-observed latency histogram of the window,
	// coordinated-omission-safe (latency runs from the scheduled
	// arrival, not the actual send).
	Hist stats.HistogramSnapshot
	// MaxLag is the worst schedule slip any sender observed: how far
	// behind its arrival schedule the send loop fell. Large lags mean
	// the generator itself (not the server) was the bottleneck —
	// latency accounting stays correct, but the offered rate was not
	// actually sustained.
	MaxLag time.Duration
}

// gen is one run's shared state.
type gen struct {
	cfg   Config
	epoch time.Time
	stop  chan struct{}

	// sampler/ids drive head-based trace sampling (nil when TraceEvery
	// is zero).
	sampler *trace.Sampler
	ids     *trace.IDGen

	hist    stats.Histogram
	sent    atomic.Uint64
	replies atomic.Uint64
	errs    atomic.Uint64
	maxLag  atomic.Int64

	failOnce sync.Once
	failErr  error
	stopped  atomic.Bool
}

// fail records the first transport error not caused by shutdown.
func (g *gen) fail(err error) {
	if g.stopped.Load() {
		return
	}
	g.failOnce.Do(func() { g.failErr = err })
}

// Run executes one open-loop measurement: dial, ramp, warm up, measure,
// tear down.
func Run(cfg Config) (Result, error) {
	if cfg.Conns <= 0 {
		return Result{}, fmt.Errorf("loadgen: needs a positive connection count")
	}
	if cfg.Arrival.Rate <= 0 {
		return Result{}, fmt.Errorf("loadgen: needs a positive arrival rate")
	}
	if cfg.Keys <= 0 {
		return Result{}, fmt.Errorf("loadgen: needs a positive keyspace")
	}
	if cfg.ReadFrac == 0 {
		cfg.ReadFrac = 0.5
	}
	raiseFDLimit()

	conns, err := dialAll(cfg)
	if err != nil {
		for _, nc := range conns {
			nc.Close()
		}
		return Result{}, err
	}
	// Collect setup garbage (dials, buffers, any caller allocations)
	// before traffic starts: the send/receive hot loops are
	// allocation-free, so paying the collection here makes a GC cycle —
	// a multi-millisecond stall that pollutes the tail of a CO-safe
	// latency window — unlikely to fire mid-measurement.
	runtime.GC()

	g := &gen{cfg: cfg, stop: make(chan struct{}), epoch: time.Now()}
	if cfg.TraceEvery > 0 {
		g.sampler = trace.NewSampler(cfg.TraceEvery)
		g.ids = trace.NewIDGen(cfg.Seed ^ uint64(g.epoch.UnixNano()))
	}
	var wg sync.WaitGroup
	for i, nc := range conns {
		wg.Add(2)
		c := newLoadConn(g, nc, i)
		go func() { defer wg.Done(); c.sendLoop() }()
		go func() { defer wg.Done(); c.recvLoop() }()
	}

	time.Sleep(cfg.Warmup)
	h0 := g.hist.Snapshot()
	s0, r0, e0 := g.sent.Load(), g.replies.Load(), g.errs.Load()
	if cfg.AtWindow != nil {
		cfg.AtWindow(true)
	}
	start := time.Now()
	time.Sleep(cfg.Measure)
	h1 := g.hist.Snapshot()
	s1, r1, e1 := g.sent.Load(), g.replies.Load(), g.errs.Load()
	elapsed := time.Since(start)
	if cfg.AtWindow != nil {
		cfg.AtWindow(false)
	}

	// Teardown: stop senders, then close connections to unblock
	// receivers (in-flight replies are abandoned — open loop).
	g.stopped.Store(true)
	close(g.stop)
	for _, nc := range conns {
		nc.Close()
	}
	wg.Wait()
	if g.failErr != nil {
		return Result{}, fmt.Errorf("loadgen: %w", g.failErr)
	}

	res := Result{
		Conns:   cfg.Conns,
		Offered: cfg.Arrival.Rate,
		Elapsed: elapsed,
		Sent:    s1 - s0,
		Replies: r1 - r0,
		Errs:    e1 - e0,
		Hist:    h1.Sub(h0),
		MaxLag:  time.Duration(g.maxLag.Load()),
	}
	res.Throughput = float64(res.Replies) / elapsed.Seconds()
	return res, nil
}

// dialAll ramps up the connection set with bounded dial parallelism.
func dialAll(cfg Config) ([]net.Conn, error) {
	conns := make([]net.Conn, cfg.Conns)
	sem := make(chan struct{}, dialConcurrency)
	var wg sync.WaitGroup
	var dialErr atomic.Pointer[error]
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if dialErr.Load() != nil {
				return
			}
			nc, err := net.DialTimeout("tcp", cfg.Addr, 10*time.Second)
			if err != nil {
				err = fmt.Errorf("loadgen: dialing conn %d/%d: %w", i+1, cfg.Conns, err)
				dialErr.CompareAndSwap(nil, &err)
				return
			}
			conns[i] = nc
		}(i)
	}
	wg.Wait()
	if ep := dialErr.Load(); ep != nil {
		live := conns[:0]
		for _, nc := range conns {
			if nc != nil {
				live = append(live, nc)
			}
		}
		return live, *ep
	}
	return conns, nil
}
