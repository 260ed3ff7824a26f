package main

import (
	"fmt"
	"time"
)

// The correctness checks run after the timed phases of every run, on the
// quiesced node. A check that fails makes the run incorrect: the process
// exits non-zero and fail_frac reads 1.

// checkStructure is check 1: the backend's own invariants hold and the
// population is conserved — every key of the data set is still present
// and size (the structure's own count) finds no others.
func checkStructure(b Backend, keys int, size func() int) error {
	if err := b.Check(); err != nil {
		return fmt.Errorf("check 1: %w", err)
	}
	s, direct := b.NewSession(), b.Direct()
	for k := 0; k < keys; k++ {
		if _, ok := s.Read(direct, uint64(k)); !ok {
			return fmt.Errorf("check 1: key %d lost", k)
		}
	}
	if got := size(); got != keys {
		return fmt.Errorf("check 1: population drifted: %d keys, want %d", got, keys)
	}
	return nil
}

// checkNoLostUpdate is check 2: every RMW adds 1 to its key, so the sum
// of all values minus the sum of the initial values is the number of
// RMWs that committed. In process that number is known exactly (lo ==
// hi); over the wire it lies between the RMWs acknowledged and the RMWs
// sent.
func checkNoLostUpdate(b Backend, keys int, lo, hi uint64) error {
	s, direct := b.NewSession(), b.Direct()
	var sum, initial uint64
	for k := 0; k < keys; k++ {
		v, _ := s.Read(direct, uint64(k))
		sum += v
		initial += InitialValue(uint64(k))
	}
	if got := sum - initial; got < lo || got > hi {
		return fmt.Errorf("check 2: values grew by %d, but between %d and %d RMWs committed", got, lo, hi)
	}
	return nil
}

// catchUpTimeout bounds the wait for the follower after load stopped. It
// is far above any catch-up measured (under a millisecond): it is there
// for a host that stalls, not for the follower.
const catchUpTimeout = 30 * time.Second

// compareHeaps reports the first word at which two heaps differ.
func compareHeaps(what string, a, b *Heap) error {
	if a.Size() != b.Size() {
		return fmt.Errorf("%s: heap sizes differ: %d and %d words", what, a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if x, y := a.Load(Addr(i)), b.Load(Addr(i)); x != y {
			return fmt.Errorf("%s: word %d differs: %d and %d", what, i, x, y)
		}
	}
	return nil
}

// recoveryResult is what check 3 measured on the way.
type recoveryResult struct {
	seconds float64
	applied int
}

// checkRecovery is check 3: after Drain (which syncs the log), replaying
// the log file into a freshly built base image gives the live heap word
// for word. Only bytes the log flushed are read.
func checkRecovery(n *node) (recoveryResult, error) {
	fresh, _ := n.wl.buildHeap()
	t0 := time.Now()
	rep, err := DurableRecover(fresh, "", n.store.LogPath())
	res := recoveryResult{seconds: time.Since(t0).Seconds(), applied: rep.Applied}
	if err != nil {
		return res, fmt.Errorf("check 3: %w", err)
	}
	return res, compareHeaps("check 3: recovered heap", n.heap, fresh)
}

// checkFollower is check 4: once caught up, the follower's heap equals
// the leader's word for word.
func checkFollower(n *node) error {
	if w, last := n.fol.Watermark(), n.store.LastSeq(); w != last {
		return fmt.Errorf("check 4: follower applied through %d, leader committed %d", w, last)
	}
	return compareHeaps("check 4: follower heap", n.heap, n.folHeap)
}

// catchUp waits until the follower has applied everything the leader
// committed and returns how long that took after load stopped. A request
// the client gave up on may still commit while the follower is awaited,
// so the leader's last sequence number is read again until it holds.
func catchUp(n *node) (time.Duration, error) {
	t0 := time.Now()
	for last := n.store.LastSeq(); ; {
		if !n.fol.WaitWatermark(last, catchUpTimeout) {
			return time.Since(t0), fmt.Errorf("check 4: follower did not catch up within %v", catchUpTimeout)
		}
		now := n.store.LastSeq()
		if now == last {
			return time.Since(t0), nil
		}
		last = now
	}
}

// verify runs the checks that apply to the node. rmwLo and rmwHi bound
// the committed RMW count. The node is drained by it.
func verify(n *node, rmwLo, rmwHi uint64) (rec recoveryResult, catchup time.Duration, err error) {
	if n.fol != nil {
		if catchup, err = catchUp(n); err != nil {
			return rec, catchup, err
		}
	}
	if err = n.drain(); err != nil {
		return rec, catchup, fmt.Errorf("drain: %w", err)
	}
	if err = checkStructure(n.backend, n.wl.keys, func() int { return hashmapSize(n.backend) }); err != nil {
		return rec, catchup, err
	}
	if err = checkNoLostUpdate(n.backend, n.wl.keys, rmwLo, rmwHi); err != nil {
		return rec, catchup, err
	}
	if n.store != nil {
		if rec, err = checkRecovery(n); err != nil {
			return rec, catchup, err
		}
		if err = checkFollower(n); err != nil {
			return rec, catchup, err
		}
	}
	return rec, catchup, nil
}
