// Package engine is the declarative workload-generation subsystem: a
// Spec describes a transactional key-value workload — keyspace size, key
// distribution (uniform, Zipfian, hot-set), operation mix (point read,
// read-modify-write, insert, delete, scan) and transaction-size
// distribution — and a Driver executes it against any tm.System through
// a pluggable Backend (the chained hash map or the B+tree index).
//
// The point of the engine is that a new workload becomes a ~10-line Spec
// instead of a bespoke package: the YCSB-style scenarios
// (internal/workload/ycsb) and the Zipfian-θ capacity sweep in
// internal/experiments are all Specs over the same driver, measured
// through the existing internal/harness Observer pipeline.
//
// Determinism: every per-thread generator is derived with
// rng.Stream(Spec.Seed, thread), so one seed reproduces the whole run —
// the same (seed, spec, thread) always yields the identical operation
// sequence, which the engine's tests pin.
package engine

import (
	"fmt"

	"sihtm/internal/rng"
	"sihtm/internal/tm"
)

// Driver executes one Spec against one Backend. It is immutable after
// New and shared by all workers: per-thread state lives in Worker.
type Driver struct {
	spec Spec
	b    Backend
	dist KeyDraw
	// cum is the cumulative percent table behind op picking: the first
	// index with cum[i] > draw identifies the mix entry.
	cum []int
}

// New validates the spec and builds its driver over the backend.
func New(spec Spec, b Backend) (*Driver, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dist, err := NewKeyDraw(spec.Dist, spec.Keys)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", spec.Name, err)
	}
	d := &Driver{spec: spec, b: b, dist: dist}
	total := 0
	for _, m := range spec.Mix {
		total += m.Percent
		d.cum = append(d.cum, total)
	}
	return d, nil
}

// Spec returns the (defaulted) spec the driver runs.
func (d *Driver) Spec() Spec { return d.spec }

// Backend returns the substrate the driver runs against.
func (d *Driver) Backend() Backend { return d.b }

// pickOp draws one op from the mix.
func (d *Driver) pickOp(r *rng.Rand) Op {
	v := r.Intn(100)
	for i, c := range d.cum {
		if v < c {
			return d.spec.Mix[i].Op
		}
	}
	return d.spec.Mix[len(d.spec.Mix)-1].Op
}

// NewWorker builds one thread's executor: its deterministic stream
// (rng.Stream(spec.Seed, thread)) and its backend session. Sessions
// offering AsyncSession get the deferred op path (one shipped unit per
// transaction on remote backends).
func (d *Driver) NewWorker(sys tm.System, thread int) *Worker {
	sess := d.b.NewSession()
	async, _ := sess.(AsyncSession)
	return &Worker{
		d:      d,
		sys:    sys,
		thread: thread,
		r:      rng.Stream(d.spec.Seed, uint64(thread)),
		sess:   sess,
		async:  async,
	}
}

// Workers returns the harness-shaped per-thread worker factory
// (harness.Run's mkWorker).
func (d *Driver) Workers(sys tm.System) func(thread int) func() {
	return func(thread int) func() {
		w := d.NewWorker(sys, thread)
		return w.Op
	}
}

// plannedOp is one drawn operation of a planned transaction.
type plannedOp struct {
	op  Op
	key uint64
}

// Worker is one thread's workload executor.
type Worker struct {
	d      *Driver
	sys    tm.System
	thread int
	r      *rng.Rand
	sess   Session
	async  AsyncSession // non-nil when sess offers the deferred path
	plan   []plannedOp
}

// planTx draws the next transaction into w.plan: its size, then one
// (op, key) pair per slot. Planning happens strictly outside the
// transaction so aborted attempts replay the identical operations (the
// TM idempotency contract), and it touches only the worker's own
// stream, which is what makes sequences reproducible per thread.
func (w *Worker) planTx() (readOnly bool, inserts int) {
	n := w.d.spec.OpsPerTxMin
	if w.d.spec.OpsPerTxMax > n {
		n = w.r.IntRange(n, w.d.spec.OpsPerTxMax)
	}
	w.plan = w.plan[:0]
	readOnly = true
	for i := 0; i < n; i++ {
		op := w.d.pickOp(w.r)
		key := w.d.dist.Draw(w.r)
		if !op.ReadOnly() {
			readOnly = false
		}
		// Inserts and read-modify-writes may consume a fresh node if the
		// key turns out to be absent; Prepare sizes pools for the worst
		// case.
		if op == OpInsert || op == OpReadModifyWrite {
			inserts++
		}
		w.plan = append(w.plan, plannedOp{op: op, key: key})
	}
	return readOnly, inserts
}

// Op plans and runs exactly one transaction of the mix to commit.
func (w *Worker) Op() {
	readOnly, inserts := w.planTx()
	kind := tm.KindUpdate
	if readOnly {
		kind = tm.KindReadOnly
	}
	w.sess.Prepare(inserts)
	w.sys.Atomic(w.thread, kind, func(ops tm.Ops) {
		w.sess.Reset()
		if w.async != nil {
			// All of a planned transaction's results are discarded, so the
			// whole plan defers: the session ships it as one unit at Commit.
			for _, p := range w.plan {
				switch p.op {
				case OpRead:
					w.async.ReadAsync(p.key)
				case OpReadModifyWrite:
					w.async.ReadModifyWriteAsync(p.key, 1)
				case OpInsert:
					w.async.InsertAsync(p.key, InitialValue(p.key))
				case OpDelete:
					w.async.DeleteAsync(p.key)
				case OpScan:
					w.async.ScanAsync(p.key, w.d.spec.ScanLen)
				}
			}
			return
		}
		for _, p := range w.plan {
			switch p.op {
			case OpRead:
				w.sess.Read(ops, p.key)
			case OpReadModifyWrite:
				v, _ := w.sess.Read(ops, p.key)
				w.sess.Insert(ops, p.key, v+1)
			case OpInsert:
				w.sess.Insert(ops, p.key, InitialValue(p.key))
			case OpDelete:
				w.sess.Delete(ops, p.key)
			case OpScan:
				w.sess.Scan(ops, p.key, w.d.spec.ScanLen)
			}
		}
	})
	w.sess.Commit()
}

// InitialValue is the value stored under a key at population time and by
// inserts, so verification can recompute expected contents.
func InitialValue(key uint64) uint64 { return key * 10 }

// Populate inserts every key of the spec's keyspace into the backend
// quiescently, so reads always hit and chain/leaf occupancy is exactly
// Keys. Call before handing the backend to workers. A Loader backend is
// handed the key count once and loads in O(Keys); any other takes one
// session insert per key through DirectOps. The two images are the same
// up to node placement: the same structure, the same keys in the same
// order, the same number of words allocated.
//
// Keys are inserted highest-first: on the prepend-style hash-map
// backend that leaves the lowest keys at chain heads, so Zipfian-hot
// ranks (rank 0 = key 0) have the shortest traversals — YCSB's "latest"
// correlation between recency and popularity. This is what makes a
// transaction's distinct-line footprint genuinely shrink with skew in
// the Zipfian-θ sweeps.
func Populate(b Backend, spec Spec) {
	if l, ok := b.(Loader); ok {
		l.Load(spec.Keys)
		return
	}
	s, ops := b.NewSession(), b.Direct()
	for k := spec.Keys - 1; k >= 0; k-- {
		s.Prepare(1)
		s.Reset()
		s.Insert(ops, uint64(k), InitialValue(uint64(k)))
		s.Commit()
	}
}
