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
	"sihtm/internal/wire"
)

// Driver executes one Spec against one Backend. It is immutable after
// New and shared by all workers: per-thread state lives in Worker.
type Driver struct {
	spec Spec
	b    Backend
	dist KeyDraw
	// cum is the cumulative percent table behind op picking: the first
	// index with cum[i] > draw identifies the mix entry, and mix[i] is
	// that entry's data-plane op with the argument the spec fixes (RMW
	// adds 1, a scan visits ScanLen entries).
	cum []int
	mix []wire.Op
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
		op := wire.Op{Kind: m.Op.Kind()}
		switch m.Op {
		case OpReadModifyWrite:
			op.Arg = 1
		case OpScan:
			op.Arg = uint64(spec.ScanLen)
		}
		d.mix = append(d.mix, op)
	}
	return d, nil
}

// Spec returns the (defaulted) spec the driver runs.
func (d *Driver) Spec() Spec { return d.spec }

// Backend returns the substrate the driver runs against.
func (d *Driver) Backend() Backend { return d.b }

// pickOp draws one op from the mix, key still unset.
func (d *Driver) pickOp(r *rng.Rand) wire.Op {
	v := r.Intn(100)
	for i, c := range d.cum {
		if v < c {
			return d.mix[i]
		}
	}
	return d.mix[len(d.mix)-1]
}

// NewWorker builds one thread's executor: its deterministic stream
// (rng.Stream(spec.Seed, thread)) and its backend session. Sessions
// offering Deferrer get the deferred op path (one shipped unit per
// transaction on remote backends).
func (d *Driver) NewWorker(sys tm.System, thread int) *Worker {
	sess := d.b.NewSession()
	def, _ := sess.(Deferrer)
	return &Worker{
		d:      d,
		sys:    sys,
		thread: thread,
		r:      rng.Stream(d.spec.Seed, uint64(thread)),
		sess:   sess,
		def:    def,
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

// Worker is one thread's workload executor.
type Worker struct {
	d      *Driver
	sys    tm.System
	thread int
	r      *rng.Rand
	sess   Session
	def    Deferrer // non-nil when sess offers the deferred path
	plan   []wire.Op
}

// planTx draws the next transaction into w.plan: its size, then one
// (op, key) pair per slot; an insert stores InitialValue(key). Planning
// happens strictly outside the transaction so aborted attempts replay
// the identical operations (the TM idempotency contract), and it
// touches only the worker's own stream, which is what makes sequences
// reproducible per thread.
func (w *Worker) planTx() (readOnly bool, inserts int) {
	n := w.d.spec.OpsPerTxMin
	if w.d.spec.OpsPerTxMax > n {
		n = w.r.IntRange(n, w.d.spec.OpsPerTxMax)
	}
	w.plan = w.plan[:0]
	readOnly = true
	for i := 0; i < n; i++ {
		op := w.d.pickOp(w.r)
		op.Key = w.d.dist.Draw(w.r)
		if op.Kind == wire.OpPut {
			op.Arg = InitialValue(op.Key)
		}
		readOnly = readOnly && op.Kind.ReadOnly()
		// Inserts and read-modify-writes may consume a fresh node if the
		// key turns out to be absent; Prepare sizes pools for the worst
		// case.
		if op.Kind.MayInsert() {
			inserts++
		}
		w.plan = append(w.plan, op)
	}
	return readOnly, inserts
}

// Op plans and runs exactly one transaction of the mix to commit. All
// of a planned transaction's results are discarded, so a deferring
// session takes the whole plan and ships it as one unit at Commit.
func (w *Worker) Op() {
	readOnly, inserts := w.planTx()
	kind := tm.KindUpdate
	if readOnly {
		kind = tm.KindReadOnly
	}
	w.sess.Prepare(inserts)
	w.sys.Atomic(w.thread, kind, func(ops tm.Ops) {
		w.sess.Reset()
		if w.def != nil {
			for _, op := range w.plan {
				w.def.Defer(op)
			}
			return
		}
		for _, op := range w.plan {
			Exec(w.sess, ops, op)
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
