package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"
)

// Fixed settings of the system under test (README.md, "Method").
const (
	sutSystem         = "si-htm"
	refSystem         = "htm" // the paper's baseline, traced run only
	groupCommitWindow = 500 * time.Microsecond
	closedLoopDepth   = 32 // requests outstanding per connection in phase A
	inprocLimit       = time.Millisecond
	latencySampleMask = 31 // in process, every 32nd transaction is timed

	planOps = 1 << 20 // planned operations per thread or connection
	rmwBit  = 1 << 31 // plan entry: key | rmwBit for a read-modify-write
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string

	keys, buckets int
	theta         float64 // Zipfian skew of the key draw; 0 is uniform
	opsPerTx      int
	readPct       int // share of plain reads; the rest are read-modify-writes

	net     bool          // served over loopback TCP instead of called in process
	durable bool          // WAL + group commit + one follower
	rate    float64       // phase B offered load, requests per second over all connections
	limit   time.Duration // latency limit of within_limit_frac
}

// The hash-map data set of kv-update, also served by both net workloads:
// 8192 keys in chains of 8, about 1 MB of live 128-byte nodes.
const (
	smallKeys    = 8192
	smallBuckets = smallKeys / 8
)

var workloads = []workload{
	{
		name: "kv-update",
		why:  "in process, small footprint, write-heavy: time goes to SI-HTM begin/quiescence/commit and conflict retries; wire, server and WAL do nothing",
		keys: smallKeys, buckets: smallBuckets, theta: 0.99, opsPerTx: 8, readPct: 50,
		limit: inprocLimit,
	},
	{
		name: "hashmap-large",
		why:  "in process, the paper's Fig. 6 regime: 100-line read footprints past the 64-line TMCAM on the read-only path, data larger than cache",
		keys: 200000, buckets: 1000, opsPerTx: 1, readPct: 90,
		limit: inprocLimit,
	},
	{
		name: "net-volatile",
		why:  "loopback TCP, closed loop then open loop at 50k req/s: wire, admission batching, shard executors and reply flush dominate; no durability",
		keys: smallKeys, buckets: smallBuckets, opsPerTx: 1, readPct: 50,
		net: true, rate: 50000, limit: 5 * time.Millisecond,
	},
	{
		name: "net-durable",
		why:  "as net-volatile plus WAL group commit (500us, ack=fsync) and one follower, open loop at 20k req/s: fsync, ack wait and replication dominate",
		keys: smallKeys, buckets: smallBuckets, opsPerTx: 1, readPct: 50,
		net: true, durable: true, rate: 20000, limit: 10 * time.Millisecond,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// heapLines sizes the simulated heap: bucket heads, one node per key and
// spare nodes for the sessions' insert pools (never consumed: every key
// an RMW touches exists).
func (w *workload) heapLines() int { return w.buckets + w.keys + 4096 }

// plan is one thread's (or connection's) ring of planned operations,
// drawn before the clock starts so that generating keys costs nothing
// inside a measurement.
type plan []uint32

// genPlan draws the ring for one stream of the seed.
func (w *workload) genPlan(seed uint64, stream int) plan {
	r := Stream(seed, uint64(stream))
	var cum []float64
	if w.theta > 0 {
		cum = zipfCDF(w.keys, w.theta)
	}
	p := make(plan, planOps)
	for i := range p {
		read := r.Intn(100) < w.readPct
		var key uint32
		if cum != nil {
			key = uint32(searchCDF(cum, r.Float64()))
		} else {
			key = uint32(r.Uint64() % uint64(w.keys))
		}
		if !read {
			key |= rmwBit
		}
		p[i] = key
	}
	return p
}

// zipfCDF is the cumulative distribution of rank k drawn with probability
// proportional to 1/(k+1)^theta (rank 0 hottest). The benchmark owns it so
// that its inputs do not move when the program's generators do.
func zipfCDF(n int, theta float64) []float64 {
	cum := make([]float64, n)
	acc := 0.0
	for k := range cum {
		acc += 1 / math.Pow(float64(k+1), theta)
		cum[k] = acc
	}
	for k := range cum {
		cum[k] /= acc
	}
	cum[n-1] = 1
	return cum
}

// searchCDF returns the first rank whose cumulative probability exceeds u.
func searchCDF(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// genGaps draws a ring of Poisson inter-arrival gaps (nanoseconds) for
// one connection offered perConn requests per second.
func genGaps(seed uint64, conn int, perConn float64) []uint32 {
	r := Stream(seed, uint64(1000+conn))
	mean := 1e9 / perConn
	g := make([]uint32, planOps)
	for i := range g {
		g[i] = uint32(-math.Log(1-r.Float64()) * mean)
	}
	return g
}

// node is one assembled system under test, built from the layers' public
// constructors.
type node struct {
	wl      *workload
	heap    *Heap
	machine *Machine
	backend Backend // the raw hash map
	front   Backend // what sessions are made from: backend, traced and/or durable
	raw     System  // the concurrency control itself
	sys     System  // what executes transactions: raw, traced and/or durable

	// served backend and server (net workloads)
	srv    *Server
	addr   string
	served chan error

	// durable workloads
	store   *Store
	walDir  string
	fol     *Follower
	folHeap *Heap
}

func (w *workload) buildHeap() (*Heap, Backend) {
	h := newHeapLines(w.heapLines())
	return h, newHashmap(h, w.buckets, w.keys)
}

// buildNode assembles the workload's node under the named concurrency
// control. tr, when non-nil, installs the benchmark's decorators at every
// seam. scratchDir receives the WAL of a durable node.
func buildNode(w *workload, system string, tr *tracer, scratchDir string) (n *node, err error) {
	n = &node{wl: w}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	n.heap, n.backend = w.buildHeap()
	n.machine = newMachine(n.heap)
	n.raw, err = newSystem(system, n.machine, loadThreads)
	if err != nil {
		return n, err
	}
	n.sys, n.front = n.raw, n.backend
	if tr != nil {
		n.sys = tr.wrapSystem(n.raw, levelTM)
		n.front = tr.wrapBackend(n.backend)
	}
	if !w.net {
		return n, nil
	}
	if w.durable {
		if err = os.MkdirAll(scratchDir, 0o755); err != nil {
			return n, err
		}
		n.walDir, err = os.MkdirTemp(scratchDir, "wal-")
		if err != nil {
			return n, err
		}
		n.store, err = openStore(n.heap, n.machine, filepath.Join(n.walDir, "wal.log"))
		if err != nil {
			return n, err
		}
		n.front = NewDurableBackend(n.front, n.store)
		n.sys = n.store.Attach(n.sys, n.machine)
		if tr != nil {
			n.sys = tr.wrapSystem(n.sys, levelDurable)
		}
	}
	n.srv, err = newServer(n.front, n.sys, loadThreads, n.store)
	if err != nil {
		return n, err
	}
	a, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		return n, err
	}
	n.addr = a.String()
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve() }()
	if w.durable {
		n.folHeap, _ = w.buildHeap()
		n.fol, err = newFollower(n.folHeap, func() (net.Conn, error) { return net.Dial("tcp", n.addr) })
		if err != nil {
			return n, err
		}
		n.fol.Start()
	}
	return n, nil
}

// drain stops the server: every admitted request is answered, the log is
// synced. The follower stops with it.
func (n *node) drain() error {
	if n.srv == nil {
		return nil
	}
	err := n.srv.Drain()
	if n.served != nil { // nil when Listen failed
		if serr := <-n.served; err == nil && serr != nil {
			err = fmt.Errorf("serve: %w", serr)
		}
	}
	n.srv = nil
	if n.fol != nil {
		if ferr := n.fol.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// close releases everything the node holds. Safe after drain and on a
// half-built node.
func (n *node) close() error {
	err := n.drain()
	if n.store != nil {
		if cerr := n.store.Close(); err == nil {
			err = cerr
		}
		n.store = nil
	}
	if n.walDir != "" {
		if rerr := os.RemoveAll(n.walDir); err == nil {
			err = rerr
		}
		n.walDir = ""
	}
	return err
}
