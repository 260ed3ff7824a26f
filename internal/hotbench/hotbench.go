// Package hotbench is the simulator's hot-path microbenchmark suite: a
// set of self-timing scenarios that measure the software cost of one
// simulated transactional operation (Read, Write, Commit, an aborted
// attempt, two threads committing side by side, or a full sihtm Atomic
// block) as a function of the transaction's footprint in cache lines,
// plus fixed-size cases: whole read-only transactions of 1, 10 and 100
// first-touch reads on the paper topology, two plain accesses outside
// any transaction (a load, and the global lock's acquire and release),
// and three about the simulated memory itself: a dependent pointer
// chase over a data set larger than cache, and three over the Fig. 6
// hash map: a lookup, a read-modify-write and the linear-time load.
//
// The paper's argument is about large-footprint transactions, so the
// simulator's per-access cost must not grow with footprint — otherwise
// the reproduced curves confound software overhead with the very
// variable the paper sweeps. This suite is the guard rail: it sweeps
// footprints from 1 to 4096 lines and reports ns/op and allocs/op per
// point, which `repro bench` serializes to BENCH_hotpath.json (see
// docs/performance.md).
//
// The same scenario bodies back the `go test -bench` benchmarks in
// internal/htm and the root package, so interactive runs and the JSON
// artifact measure identical code.
package hotbench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/results"
	"sihtm/internal/rng"
	"sihtm/internal/sgl"
	isihtm "sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
)

// DefaultSweep is the footprint ladder, in cache lines: from well under
// the 64-line TMCAM to ~64× past it, the regime SI-HTM stretches into.
var DefaultSweep = []int{1, 4, 16, 64, 256, 1024, 4096}

// Case is one microbenchmark: Setup builds a fresh simulated machine and
// returns a runner executing n operations of the scenario.
type Case struct {
	// Op is the operation family: "plain", "read", "write", "commit",
	// "abort", "commit-2t", "readtx", "atomic", "chase", "lookup", "rmw"
	// or "populate".
	Op string
	// Mode is the transaction flavour ("HTM"/"ROT"), or for plain the
	// access ("Load"/"LockPair"); "" for the rest.
	Mode string
	// Lines is the transaction footprint in cache lines; for chase,
	// lookup, rmw and populate, the size of the data set; 0 for plain.
	Lines int
	// Setup constructs the scenario and returns its runner.
	Setup func() func(n int)
}

// Sub is the case's sub-benchmark name, e.g. "HTM/lines=1024", or
// "Load" for a plain case.
func (c Case) Sub() string {
	if c.Lines == 0 {
		return c.Mode
	}
	if c.Mode == "" {
		return fmt.Sprintf("lines=%d", c.Lines)
	}
	return fmt.Sprintf("%s/lines=%d", c.Mode, c.Lines)
}

// Name is the case's full display name, e.g. "Read/HTM/lines=1024".
func (c Case) Name() string {
	title := map[string]string{"plain": "Plain", "read": "Read", "write": "Write", "commit": "Commit", "abort": "Abort", "commit-2t": "Commit2T", "readtx": "ReadTx", "atomic": "Atomic", "chase": "Chase", "lookup": "Lookup", "rmw": "RMW", "populate": "Populate"}[c.Op]
	return title + "/" + c.Sub()
}

// newMachine builds a single-thread machine whose TMCAM comfortably fits
// a footprint of lines, so capacity aborts never pollute the timing.
func newMachine(lines int) (*memsim.Heap, *htm.Machine) {
	heap := memsim.NewHeapLines(lines + 64)
	m := htm.NewMachine(heap, htm.Config{
		Topology:   topology.New(1, 1),
		TMCAMLines: lines + 8,
	})
	return heap, m
}

// allocLines reserves n line-aligned addresses.
func allocLines(heap *memsim.Heap, n int) []memsim.Addr {
	addrs := make([]memsim.Addr, n)
	for i := range addrs {
		addrs[i] = heap.AllocLine()
	}
	return addrs
}

// plainCase measures one plain access outside any transaction on an
// idle one-thread machine. "Load" is a Thread.Load of a word of a line
// no transaction owns: the step a read-only transaction's body repeats.
// "LockPair" is one sgl.Lock Acquire plus Release, the global lock's
// load and compare-and-swap, then its load and store: what every
// fall-back and every lock check outside the hardware pays.
func plainCase(access string) Case {
	return Case{Op: "plain", Mode: access, Setup: func() func(int) {
		heap, m := newMachine(1)
		th := m.Thread(0)
		if access == "LockPair" {
			lock := sgl.New(m)
			return func(n int) {
				for k := 0; k < n; k++ {
					lock.Acquire(th)
					lock.Release(th)
				}
			}
		}
		a := heap.AllocLine()
		return func(n int) {
			for k := 0; k < n; k++ {
				th.Load(a)
			}
		}
	}}
}

// readCase measures the steady-state cost of Tx.Read inside a live
// transaction that already tracks a footprint of `lines` cache lines —
// the access pattern of every large read-mostly transaction.
func readCase(mode htm.Mode, lines int) Case {
	return Case{Op: "read", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		tx := m.Thread(0).Begin(mode)
		for _, a := range addrs {
			tx.Read(a)
		}
		i := 0
		return func(n int) {
			for k := 0; k < n; k++ {
				tx.Read(addrs[i])
				if i++; i == len(addrs) {
					i = 0
				}
			}
		}
	}}
}

// writeCase measures the steady-state cost of Tx.Write inside a live
// transaction whose write set already spans `lines` cache lines.
func writeCase(mode htm.Mode, lines int) Case {
	return Case{Op: "write", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		tx := m.Thread(0).Begin(mode)
		for _, a := range addrs {
			tx.Write(a, 1)
		}
		i := 0
		return func(n int) {
			for k := 0; k < n; k++ {
				tx.Write(addrs[i], uint64(k))
				if i++; i == len(addrs) {
					i = 0
				}
			}
		}
	}}
}

// commitCase measures a whole transaction writing `lines` distinct cache
// lines and committing — one op is Begin + lines×Write + Commit, so its
// ns/op necessarily grows with footprint; allocs/op must not.
func commitCase(mode htm.Mode, lines int) Case {
	return Case{Op: "commit", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		th := m.Thread(0)
		return func(n int) {
			for k := 0; k < n; k++ {
				tx := th.Begin(mode)
				for _, a := range addrs {
					tx.Write(a, uint64(k))
				}
				tx.Commit()
			}
		}
	}}
}

// abortCase measures a whole aborted attempt under htm.Run: Begin,
// `lines` writes, an explicit abort, the unwind and the clean-up that
// hands every claimed line back. Conflict-heavy workloads pay this once
// per retry, so it must stay as allocation-free as the commit.
func abortCase(mode htm.Mode, lines int) Case {
	return Case{Op: "abort", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		th := m.Thread(0)
		body := func(tx *htm.Tx) {
			for _, a := range addrs {
				tx.Write(a, 1)
			}
			tx.AbortExplicit()
		}
		return func(n int) {
			for k := 0; k < n; k++ {
				htm.Run(th, mode, body)
			}
		}
	}}
}

// commit2TCase is commitCase on two hardware threads at once: two
// goroutines, one per core, each committing its own `lines`-line ROT
// write set, disjoint from the other's. One op is one committed
// transaction of either thread, so with a second CPU and nothing shared
// between the two the figure is half of Commit/ROT's; whatever the
// commit path makes the cores share shows up as the shortfall — the
// cost a single-threaded suite cannot see. The two sets are allocated
// back to back, as a workload's records are, so their ownership words
// meet in one 64-byte cache line at the boundary (and, below 16 lines,
// everywhere): the shortfall at small footprints is that line bouncing.
func commit2TCase(lines int) Case {
	return Case{Op: "commit-2t", Mode: htm.ModeROT.String(), Lines: lines, Setup: func() func(int) {
		heap := memsim.NewHeapLines(2*lines + 64)
		m := htm.NewMachine(heap, htm.Config{
			Topology:   topology.New(2, 1),
			TMCAMLines: lines + 8,
		})
		sets := [2][]memsim.Addr{allocLines(heap, lines), allocLines(heap, lines)}
		commitN := func(thread, n int) {
			th := m.Thread(thread)
			for k := 0; k < n; k++ {
				tx := th.Begin(htm.ModeROT)
				for _, a := range sets[thread] {
					tx.Write(a, uint64(k))
				}
				tx.Commit()
			}
		}
		// Warm both threads' pooled footprint state here: a one-op
		// warm-up batch would reach only one of them. Nothing per batch
		// may allocate, or the suite bills it to the scenario: the peer's
		// closure is built once, its goroutine comes off the runtime's
		// free list, and the join spins on a flag, because parking on a
		// channel or a WaitGroup takes a sudog that the forced collection
		// before each measured batch has just thrown away.
		commitN(0, 1)
		commitN(1, 1)
		var peerN int
		var peerDone atomic.Bool
		peer := func() {
			commitN(1, peerN)
			peerDone.Store(true)
		}
		return func(n int) {
			peerN = n / 2
			peerDone.Store(false)
			go peer()
			commitN(0, n-peerN)
			for !peerDone.Load() {
				runtime.Gosched()
			}
		}
	}}
}

// readTxSizes are the readtx family's footprints in lines: one, a few,
// and the 100-line reads of a Fig. 6 chain walk.
var readTxSizes = []int{1, 10, 100}

// readTxCase measures a whole read-only transaction on the paper's
// 80-thread topology: Begin, a first-touch Read of each of `lines`
// lines, Commit. In HTM mode every read registers the line in the
// directory's reader table, charges the TMCAM and is released at
// commit, so the gap to ROT, whose reads are plain loads, is what a
// tracked read costs the simulator.
func readTxCase(mode htm.Mode, lines int) Case {
	return Case{Op: "readtx", Mode: mode.String(), Lines: lines, Setup: func() func(int) {
		heap := memsim.NewHeapLines(lines + 64)
		m := htm.NewMachine(heap, htm.Config{
			Topology:   topology.Paper(),
			TMCAMLines: lines + 8,
		})
		addrs := allocLines(heap, lines)
		th := m.Thread(0)
		return func(n int) {
			for k := 0; k < n; k++ {
				tx := th.Begin(mode)
				for _, a := range addrs {
					tx.Read(a)
				}
				tx.Commit()
			}
		}
	}}
}

// atomicCase measures the end-to-end sihtm update path — ROT attempt,
// commit, quiescence — for a transaction reading and writing `lines`
// cache lines, through the same Atomic entry point workloads use.
func atomicCase(lines int) Case {
	return Case{Op: "atomic", Lines: lines, Setup: func() func(int) {
		heap, m := newMachine(lines)
		addrs := allocLines(heap, lines)
		sys := isihtm.NewSystem(m, 1, isihtm.Config{})
		return func(n int) {
			for k := 0; k < n; k++ {
				sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
					for _, a := range addrs {
						ops.Write(a, ops.Read(a)+1)
					}
				})
			}
		}
	}}
}

// chaseSizes are the chase family's ring sizes in lines: 2 MB, which
// the last-level cache holds and 512 TLB entries of 4 KB cover, and
// 32 MB, the Fig. 6 data set's order of magnitude, which neither does.
// A node's words 0 and 2 sit in memsim's low bank, so a walk touches
// half of that in host lines: 1 MB and 16 MB.
var chaseSizes = []int{16384, 262144}

// chaseCase measures what one node of a chain walk costs outside any
// transaction: one thread follows a randomly permuted ring of `lines`
// one-line nodes with plain Thread.Load, key word then next word per
// node, as hashmap.Map.Lookup does. Every load depends on the one
// before, so the figure is the memory's latency, the host's page walk
// included: the number the heap's huge-page advice moves (memsim).
func chaseCase(lines int) Case {
	return Case{Op: "chase", Lines: lines, Setup: func() func(int) {
		heap := memsim.NewHeapLines(lines + 64)
		m := htm.NewMachine(heap, htm.Config{Topology: topology.New(1, 1)})
		nodes := allocLines(heap, lines)
		order := make([]int, lines)
		rng.New(1).Perm(order)
		for i, at := range order {
			heap.Store(nodes[at], uint64(at))
			heap.Store(nodes[at]+2, uint64(nodes[order[(i+1)%lines]]))
		}
		th := m.Thread(0)
		node := nodes[0]
		return func(n int) {
			for k := 0; k < n; k++ {
				th.Load(node)
				node = memsim.Addr(th.Load(node + 2))
			}
		}
	}}
}

// fig6Buckets and fig6Keys shape the Fig. 6 hash map the lookup and
// populate cases build: 1000 chains of 200, keys 0..199 999.
const fig6Buckets, fig6Keys = 1000, 1000 * 200

// fig6Map builds the populated Fig. 6 map on a one-thread machine and
// returns it with that thread.
func fig6Map() (*engine.HashmapBackend, *htm.Thread) {
	spec := engine.Spec{Keys: fig6Keys}
	heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, fig6Buckets))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(1, 1)})
	b := engine.NewHashmapBackend(heap, fig6Buckets)
	engine.Populate(b, spec)
	return b, m.Thread(0)
}

// lookupCase measures one read-only hashmap.Map.Lookup of a uniformly
// drawn key over the populated Fig. 6 map, through the uninstrumented
// htm.ReadOnlyOps that SI-HTM's read-only path hands a body: a walk
// of about 100 nodes, so the figure is the chain walk itself, the one
// the map's layout decides (compare it with Chase per node).
func lookupCase() Case {
	return Case{Op: "lookup", Lines: fig6Keys, Setup: func() func(int) {
		b, th := fig6Map()
		var ops tm.Ops = th.ReadOnly()
		r := rng.New(1)
		return func(n int) {
			for k := 0; k < n; k++ {
				b.Map().Lookup(ops, r.Uint64()%fig6Keys)
			}
		}
	}}
}

// rmwCase measures one read-modify-write of a uniformly drawn key over
// the populated Fig. 6 map, as engine.Exec runs OpRMW: a hash-map
// session's Read, then its Insert of the value plus one, through the
// *htm.Tx itself inside one ROT on an idle machine, Begin to Commit.
// The Insert reuses the node the Read found (the Session protocol's memo
// rule), so the figure is Lookup's walk plus one buffered write and its
// commit.
func rmwCase() Case {
	return Case{Op: "rmw", Lines: fig6Keys, Setup: func() func(int) {
		b, th := fig6Map()
		s := b.NewSession()
		r := rng.New(1)
		return func(n int) {
			for k := 0; k < n; k++ {
				key := r.Uint64() % fig6Keys
				s.Prepare(1)
				s.Reset()
				tx := th.Begin(htm.ModeROT)
				v, _ := s.Read(tx, key)
				s.Insert(tx, key, v+1)
				tx.Commit()
				s.Commit()
			}
		}
	}}
}

// populateCase measures engine.Populate on the Fig. 6 hash map: one op
// is one key loaded, amortised over whole 200 000-key loads into a map
// whose chains were just emptied.
func populateCase() Case {
	spec := engine.Spec{Keys: fig6Keys}
	return Case{Op: "populate", Lines: spec.Keys, Setup: func() func(int) {
		heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, fig6Buckets))
		b := engine.NewHashmapBackend(heap, fig6Buckets)
		empty := heap.Allocated()
		return func(n int) {
			for ; n > 0; n -= spec.Keys {
				heap.Zero(0, empty)
				heap.RestoreAllocated(empty)
				engine.Populate(b, engine.Spec{Keys: min(n, spec.Keys)})
			}
		}
	}}
}

// Cases enumerates the full suite over the given footprint sweep.
func Cases(sweep []int) []Case {
	if len(sweep) == 0 {
		sweep = DefaultSweep
	}
	cs := []Case{plainCase("Load"), plainCase("LockPair")}
	for _, mk := range []func(htm.Mode, int) Case{readCase, writeCase, commitCase, abortCase} {
		for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
			for _, lines := range sweep {
				cs = append(cs, mk(mode, lines))
			}
		}
	}
	for _, lines := range sweep {
		cs = append(cs, commit2TCase(lines))
	}
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		for _, lines := range readTxSizes {
			cs = append(cs, readTxCase(mode, lines))
		}
	}
	for _, lines := range sweep {
		cs = append(cs, atomicCase(lines))
	}
	for _, lines := range chaseSizes {
		cs = append(cs, chaseCase(lines))
	}
	return append(cs, lookupCase(), rmwCase(), populateCase())
}

// CasesFor returns the suite restricted to one operation family.
func CasesFor(op string, sweep []int) []Case {
	var out []Case
	for _, c := range Cases(sweep) {
		if c.Op == op {
			out = append(out, c)
		}
	}
	return out
}

// Run measures one case: it calibrates an iteration count that fills
// roughly the given budget, then times a single measured batch bracketed
// by memory-stat reads, and returns the point as a BenchRecord.
func Run(c Case, budget time.Duration) results.BenchRecord {
	if budget <= 0 {
		budget = 100 * time.Millisecond
	}
	run := c.Setup()
	run(1) // warm up lazily-built state so it is not billed to op 0

	// Calibrate: grow n until one batch fills ~the budget. The final
	// calibration batch doubles as the explicit warm-up: it runs the
	// full measured iteration count, so every pool, spare and
	// lazily-grown slice the steady state needs exists before the
	// measured batch starts.
	n := 1
	for {
		start := time.Now()
		run(n)
		d := time.Since(start)
		if d >= budget || n >= 1<<30 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(budget) / float64(d)
		}
		if grow < 2 {
			grow = 2
		} else if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}

	// Measure with the collector paused: a GC cycle landing inside the
	// batch charges its bookkeeping allocations to the scenario and
	// turns a true zero into a one-in-ten-million blip. The suite's
	// pin is exact zeros, so nothing may allocate but the scenario.
	//
	// Even with GC off, the runtime very occasionally makes a single
	// small internal allocation inside a multi-second window (observed:
	// one 32-byte malloc in ~1 of 30 ten-million-op batches, with no
	// user goroutines running). That noise is indistinguishable from a
	// scenario leak in a single batch, so measure up to a few batches
	// and keep the one with the fewest mallocs: a real scenario
	// allocation recurs in every batch and still shows through, while
	// one-off runtime blips are rejected.
	gcPrev := debug.SetGCPercent(-1)
	var best results.BenchRecord
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		run(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)

		fn := float64(n)
		r := results.BenchRecord{
			Name:        c.Name(),
			Op:          c.Op,
			Mode:        c.Mode,
			Lines:       c.Lines,
			Iters:       uint64(n),
			NsPerOp:     float64(elapsed.Nanoseconds()) / fn,
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / fn,
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / fn,
		}
		if attempt == 0 || r.AllocsPerOp < best.AllocsPerOp {
			best = r
		}
		if best.AllocsPerOp == 0 {
			break
		}
	}
	debug.SetGCPercent(gcPrev)
	return best
}

// RunAll measures every case in the suite over the sweep, invoking
// progress after each point if non-nil.
func RunAll(sweep []int, budget time.Duration, progress func(results.BenchRecord)) []results.BenchRecord {
	var recs []results.BenchRecord
	for _, c := range Cases(sweep) {
		r := Run(c, budget)
		if progress != nil {
			progress(r)
		}
		recs = append(recs, r)
	}
	return recs
}
