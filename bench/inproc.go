package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// warmupSlice is the slice index during warm-up; its work is counted
// nowhere.
const warmupSlice = -1

// sliceClock tells the workers which slice of the phase is running: the
// main goroutine advances it at the slice edges and stamps time and CPU
// there. It reads warmupSlice during warm-up and the slice count once the
// phase is over.
type sliceClock struct{ idx atomic.Int32 }

// sliceData is what one slice of a phase measured.
type sliceData struct {
	seconds   float64 // wall time of the slice
	cpu       float64 // process CPU seconds spent in it
	done      uint64  // operations completed
	attempted uint64  // operations attempted
	failed    uint64  // operations that failed
	limitBase uint64  // operations judged against the latency limit
	within    uint64  // those that succeeded within it
	lat       []int64 // sorted exact latencies, ns
}

// phaseData is one timed phase: warm-up, then back-to-back slices.
type phaseData struct {
	slices []sliceData
	// Open loop only: how late the generator sent (ns, sorted), and
	// requests offered by the schedule against requests sent.
	late          []int64
	offered, sent uint64
}

// phaseTiming fixes the shape of a phase.
type phaseTiming struct {
	warmup time.Duration
	slice  time.Duration
	slices int
}

// edges are the wall and CPU stamps at the slice boundaries of a phase.
type edges struct {
	wall []time.Time
	cpu  []time.Duration
}

// runSlices drives the clock through one phase: warm-up, then each slice,
// calling atEdge (if any) at every boundary, index 0 being the start of
// the first slice.
func (pt phaseTiming) runSlices(clk *sliceClock, atEdge func(i int)) edges {
	var e edges
	clk.idx.Store(warmupSlice)
	time.Sleep(pt.warmup)
	for s := 0; s <= pt.slices; s++ {
		e.wall = append(e.wall, time.Now())
		e.cpu = append(e.cpu, cpuTime())
		if atEdge != nil {
			atEdge(s)
		}
		clk.idx.Store(int32(s))
		if s < pt.slices {
			time.Sleep(pt.slice)
		}
	}
	return e
}

func (e edges) fill(p *phaseData) {
	for s := range p.slices {
		p.slices[s].seconds = e.wall[s+1].Sub(e.wall[s]).Seconds()
		p.slices[s].cpu = (e.cpu[s+1] - e.cpu[s]).Seconds()
	}
}

// inprocWorker is one closed-loop thread calling System.Atomic with the
// benchmark's own body over an engine.Session.
type inprocWorker struct {
	thread   int
	sys      System
	sess     Session
	plan     plan
	opsPerTx int
	pos      int
	cur      []uint32
	body     func(Ops)
	tt       *threadTrace // nil untraced

	rec     *recorder
	tx      []uint64 // committed transactions per slice
	within  []uint64 // timed transactions within the limit, per slice
	rmwDone uint64   // every committed RMW, warm-up included (check 2)
	txDone  uint64
}

func newInprocWorker(n *node, thread int, p plan, pt phaseTiming, tr *tracer) *inprocWorker {
	w := &inprocWorker{
		thread: thread, sys: n.sys, sess: n.front.NewSession(), plan: p, opsPerTx: n.wl.opsPerTx,
		tx: make([]uint64, pt.slices), within: make([]uint64, pt.slices),
	}
	// Capacity for the fastest plausible thread: 2M transactions per
	// second, one in 32 timed.
	w.rec = newRecorder(pt.slices, int(pt.slice.Seconds()*2e6)/(latencySampleMask+1)+1024)
	if tr != nil {
		w.tt = tr.threads[thread]
	}
	w.body = func(ops Ops) {
		w.sess.Reset()
		for _, op := range w.cur {
			key := uint64(op &^ rmwBit)
			v, _ := w.sess.Read(ops, key)
			if op&rmwBit != 0 {
				w.sess.Insert(ops, key, v+1)
			}
		}
	}
	return w
}

// one runs the next planned transaction to commit and returns its RMW
// count.
func (w *inprocWorker) one() uint64 {
	w.cur = w.plan[w.pos : w.pos+w.opsPerTx]
	w.pos = (w.pos + w.opsPerTx) & (len(w.plan) - 1)
	rmws := 0
	for _, op := range w.cur {
		rmws += int(op >> 31)
	}
	kind := KindUpdate
	if rmws == 0 {
		kind = KindReadOnly
	}
	if w.tt != nil {
		w.tt.beginTx()
	}
	w.sess.Prepare(rmws)
	w.sys.Atomic(w.thread, kind, w.body)
	w.sess.Commit()
	if w.tt != nil {
		w.tt.endTx()
	}
	return uint64(rmws)
}

func (w *inprocWorker) run(clk *sliceClock, slices int, limit time.Duration) {
	for i := 0; ; i++ {
		s := int(clk.idx.Load())
		if s >= slices {
			return
		}
		if i&latencySampleMask == 0 {
			t0 := time.Now()
			w.rmwDone += w.one()
			d := time.Since(t0)
			if s >= 0 {
				w.rec.add(s, int64(d))
				if d <= limit {
					w.within[s]++
				}
			}
		} else {
			w.rmwDone += w.one()
		}
		w.txDone++
		if s >= 0 {
			w.tx[s]++
		}
	}
}

// runInproc runs one in-process phase on a built node and returns what
// it measured plus the committed RMW count for check 2.
func runInproc(n *node, plans []plan, pt phaseTiming, tr *tracer, atEdge func(int)) (*phaseData, uint64) {
	workers := make([]*inprocWorker, loadThreads)
	for t := range workers {
		workers[t] = newInprocWorker(n, t, plans[t], pt, tr)
	}
	var clk sliceClock
	clk.idx.Store(warmupSlice)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(&clk, pt.slices, n.wl.limit)
		}()
	}
	e := pt.runSlices(&clk, atEdge)
	wg.Wait()

	p := &phaseData{slices: make([]sliceData, pt.slices)}
	e.fill(p)
	var rmws uint64
	recs := make([]*recorder, len(workers))
	for i, w := range workers {
		recs[i] = w.rec
		rmws += w.rmwDone
	}
	for s := range p.slices {
		sd := &p.slices[s]
		sd.lat = mergeSorted(recs, s)
		for _, w := range workers {
			sd.done += w.tx[s]
			sd.within += w.within[s]
		}
		// Atomic returns only after commit: nothing attempted can fail.
		sd.attempted = sd.done
		sd.limitBase = uint64(len(sd.lat))
	}
	return p, rmws
}
