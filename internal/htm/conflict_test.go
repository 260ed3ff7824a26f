package htm_test

import (
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
)

// The tests in this file script the exact conflict scenarios of the
// paper's §2.2 (Figure 2) and §3.1 (Figure 3), driving two hardware
// threads from one goroutine so interleavings are deterministic.

// Figure 2, example A: a write-after-read conflict between two ROTs is
// tolerated — the reader's load is untracked, so the writer survives.
func TestROTWriteAfterReadTolerated(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	r0 := m.Thread(0).Begin(htm.ModeROT)
	r1 := m.Thread(1).Begin(htm.ModeROT)

	if got := r0.Read(x); got != 0 {
		t.Fatalf("r0 read = %d, want 0", got)
	}
	r1.Write(x, 1) // write-after-read: no conflict under ROTs
	if ab := tryTx(func() { r1.Commit() }); ab != nil {
		t.Fatalf("writer ROT aborted on WAR: %v", ab)
	}
	if ab := tryTx(func() { r0.Commit() }); ab != nil {
		t.Fatalf("reader ROT aborted on WAR: %v", ab)
	}
	checkQuiescent(t, m)
}

// Figure 2, example B: a read-after-write conflict causes the writer ROT
// to abort — the read invalidates the writer's TMCAM entry.
func TestROTReadAfterWriteKillsWriter(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	r0 := m.Thread(0).Begin(htm.ModeROT)
	r1 := m.Thread(1).Begin(htm.ModeROT)

	r0.Write(x, 1)
	if got := r1.Read(x); got != 0 {
		t.Fatalf("r1 must read the committed value 0, got %d", got)
	}
	if ab := tryTx(func() { r0.Commit() }); ab == nil {
		t.Fatal("writer ROT survived an invalidating read")
	} else if ab.Code != htm.CodeTxConflict {
		t.Fatalf("writer abort code = %v, want tx-conflict", ab.Code)
	}
	if ab := tryTx(func() { r1.Commit() }); ab != nil {
		t.Fatalf("reader ROT aborted: %v", ab)
	}
	checkQuiescent(t, m)
}

// §2.2: "In the case of write-write conflicts the last writer is killed."
func TestWriteWriteKillsLastWriter(t *testing.T) {
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		m := newMachine(t, 2, 1, 64)
		x := m.Heap().AllocLine()
		first := m.Thread(0).Begin(mode)
		second := m.Thread(1).Begin(mode)

		first.Write(x, 1)
		ab := tryTx(func() { second.Write(x, 2) })
		if ab == nil || ab.Code != htm.CodeTxConflict {
			t.Fatalf("%v: last writer abort = %v, want tx-conflict", mode, ab)
		}
		if ab := tryTx(func() { first.Commit() }); ab != nil {
			t.Fatalf("%v: first writer aborted: %v", mode, ab)
		}
		th := m.Thread(0)
		if got := th.Load(x); got != 1 {
			t.Fatalf("%v: x = %d, want 1", mode, got)
		}
		checkQuiescent(t, m)
	}
}

// Regular HTM tracks reads, so a write-after-read is a conflict: the
// writer's invalidation dooms the reader (in contrast with ROTs above).
func TestHTMWriteAfterReadKillsReader(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	reader := m.Thread(0).Begin(htm.ModeHTM)
	writer := m.Thread(1).Begin(htm.ModeROT)

	if got := reader.Read(x); got != 0 {
		t.Fatalf("read = %d, want 0", got)
	}
	writer.Write(x, 1)
	if ab := tryTx(func() { writer.Commit() }); ab != nil {
		t.Fatalf("writer aborted: %v", ab)
	}
	ab := tryTx(func() { reader.Read(x + 1) })
	if ab == nil || ab.Code != htm.CodeTxConflict {
		t.Fatalf("tracked reader abort = %v, want tx-conflict", ab)
	}
	checkQuiescent(t, m)
}

// A regular-HTM read of a line in another transaction's write set kills
// the writer (last reader wins), and the reader observes the committed
// value.
func TestHTMReadAfterWriteKillsWriter(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	m.Heap().Store(x, 10)
	writer := m.Thread(0).Begin(htm.ModeHTM)
	reader := m.Thread(1).Begin(htm.ModeHTM)

	writer.Write(x, 99)
	if got := reader.Read(x); got != 10 {
		t.Fatalf("reader saw %d, want committed 10", got)
	}
	if ab := tryTx(func() { writer.Commit() }); ab == nil {
		t.Fatal("doomed writer committed")
	}
	if ab := tryTx(func() { reader.Commit() }); ab != nil {
		t.Fatalf("reader aborted: %v", ab)
	}
	checkQuiescent(t, m)
}

// A plain store kills both the line's writer and its tracked readers,
// with non-transactional cause — the SGL kill mechanism.
func TestPlainStoreKillsAllOwners(t *testing.T) {
	m := newMachine(t, 3, 1, 64)
	x := m.Heap().AllocLine()
	reader := m.Thread(0).Begin(htm.ModeHTM)
	writer := m.Thread(1).Begin(htm.ModeROT)
	y := m.Heap().AllocLine()
	writer.Write(y, 1) // disjoint line so both can be live at once
	_ = reader.Read(x)

	m.Thread(2).Store(x, 7)
	ab := tryTx(func() { reader.Read(x) })
	if ab == nil || ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("reader abort = %v, want non-tx-conflict", ab)
	}

	m.Thread(2).Store(y, 8)
	ab = tryTx(func() { writer.Commit() })
	if ab == nil || ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("writer abort = %v, want non-tx-conflict", ab)
	}
	th := m.Thread(2)
	if th.Load(x) != 7 || th.Load(y) != 8 {
		t.Fatal("plain stores lost")
	}
	checkQuiescent(t, m)
}

// A reader that subscribes to a line while a plain store or CAS to it
// is under way either loads the new value or is doomed by the store: it
// never commits on the old one. The hook runs thread 0's subscription
// between the two steps of thread 1's store. Scanning the readers before
// publishing (the order that let an HTM transaction read the SGL word as
// free and commit over the fall-back body) fails here on every run.
func TestPlainStoreReachesAReaderInItsWindow(t *testing.T) {
	for _, c := range []struct {
		name  string
		store func(th *htm.Thread, a memsim.Addr)
	}{
		{"Store", func(th *htm.Thread, a memsim.Addr) { th.Store(a, 1) }},
		{"CompareAndSwap", func(th *htm.Thread, a memsim.Addr) { th.CompareAndSwap(a, 0, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newMachine(t, 2, 1, 64)
			lock := m.Heap().AllocLine()
			var sub *htm.Tx
			var seen uint64
			m.SetPlainPublished(func() {
				m.SetPlainPublished(nil)
				sub = m.Thread(0).Begin(htm.ModeHTM)
				seen = sub.Read(lock)
			})
			c.store(m.Thread(1), lock)
			if sub == nil {
				t.Fatal("the hook did not run")
			}
			if ab := tryTx(func() { sub.Commit() }); ab == nil && seen != 1 {
				t.Fatalf("subscriber read %d and committed after the plain write of 1", seen)
			}
			checkQuiescent(t, m)
		})
	}
}

// A writer that claims a line while a tracked read of it is under way
// either is seen by the read or dooms the reader: the reader never
// commits on a snapshot torn across that writer. The hook runs between
// the reader's registration on x and its snoop: thread 1's ROT claims x
// and y there, and commits once the reader's read of x has returned, so
// the reader then reads the new y. Snooping before registering lets the
// claim of x miss the reader, which then commits having seen the old x
// and the new y; that order fails here on every run.
func TestWriterReachesAReaderInItsWindow(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	lines := allocLines(m, 2)
	x, y := lines[0], lines[1]
	var writer *htm.Tx
	m.SetReadRegistered(func() {
		m.SetReadRegistered(nil)
		writer = m.Thread(1).Begin(htm.ModeROT)
		writer.Write(x, 1)
		writer.Write(y, 1)
	})
	reader := m.Thread(0).Begin(htm.ModeHTM)
	var oldX, newY bool
	ab := tryTx(func() {
		oldX = reader.Read(x) == 0
		if writer == nil {
			t.Fatal("the hook did not run")
		}
		tryTx(func() { writer.Commit() })
		newY = reader.Read(y) == 1
		reader.Commit()
	})
	if ab == nil && oldX && newY {
		t.Fatal("the reader committed having seen the old x and the new y")
	}
	checkQuiescent(t, m)
}

// Suspended accesses are non-transactional: they do not grow the
// footprint and they conflict as plain accesses do.
func TestSuspendResumeSemantics(t *testing.T) {
	m := newMachine(t, 2, 1, 4) // tiny TMCAM to catch accidental tracking
	lines := allocLines(m, 10)
	x := lines[0]
	tx := m.Thread(0).Begin(htm.ModeHTM)
	tx.Write(x, 1)

	tx.Suspend()
	// Ten distinct lines while suspended: would blow the 4-line TMCAM if
	// they were tracked.
	for _, a := range lines[1:] {
		if tx.Read(a) != 0 {
			t.Fatal("suspended read wrong")
		}
	}
	tx.Resume()
	if ab := tryTx(func() { tx.Commit() }); ab != nil {
		t.Fatalf("commit after suspend/resume aborted: %v", ab)
	}
	if m.Thread(0).Load(x) != 1 {
		t.Fatal("commit lost")
	}
	checkQuiescent(t, m)
}

// A conflict arriving during suspension is delivered at Resume.
func TestDoomDuringSuspensionDeliveredAtResume(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	tx := m.Thread(0).Begin(htm.ModeROT)
	tx.Write(x, 1)
	tx.Suspend()
	if got := m.Thread(1).Load(x); got != 0 { // invalidates the suspended writer
		t.Fatalf("plain load = %d, want 0", got)
	}
	ab := tryTx(func() { tx.Resume() })
	if ab == nil || ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("resume abort = %v, want non-tx-conflict", ab)
	}
	checkQuiescent(t, m)
}

// A suspended transaction reading its own write set self-invalidates:
// the plain load conflicts with its own transactional store.
func TestSuspendedSelfReadSelfAborts(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	x := m.Heap().AllocLine()
	m.Heap().Store(x, 5)
	tx := m.Thread(0).Begin(htm.ModeROT)
	tx.Write(x, 6)
	tx.Suspend()
	if got := tx.Read(x); got != 5 {
		t.Fatalf("suspended self-read = %d, want pre-transaction 5", got)
	}
	ab := tryTx(func() { tx.Resume() })
	if ab == nil {
		t.Fatal("transaction survived self-invalidation")
	}
	checkQuiescent(t, m)
}

// The scripted lost-update interleaving: two raw ROTs increment the same
// counter; the second starts before the first commits but writes after.
// Raw ROTs permit the lost update (this is exactly why SI-HTM adds the
// safety wait — its runtime-level test shows the wait closes this).
func TestRawROTsPermitLostUpdate(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	r0 := m.Thread(0).Begin(htm.ModeROT)
	r1 := m.Thread(1).Begin(htm.ModeROT)

	v0 := r0.Read(x) // reads 0 (untracked)
	v1 := r1.Read(x) // reads 0 (untracked)
	r1.Write(x, v1+1)
	if ab := tryTx(func() { r1.Commit() }); ab != nil {
		t.Fatalf("r1 aborted: %v", ab)
	}
	r0.Write(x, v0+1) // stale increment, no conflict: r1 already committed
	if ab := tryTx(func() { r0.Commit() }); ab != nil {
		t.Fatalf("r0 aborted: %v", ab)
	}
	if got := m.Thread(0).Load(x); got != 1 {
		t.Fatalf("x = %d; raw ROTs were expected to lose one increment (want 1)", got)
	}
	checkQuiescent(t, m)
}

// Figure 3's dirty-read anomaly, reproduced on raw ROTs: r0 reads X twice
// and sees two different values because r1 commits in between. (SI-HTM's
// safety wait exists to forbid exactly this; see the sihtm tests.)
func TestRawROTsPermitNonRepeatableRead(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	r0 := m.Thread(0).Begin(htm.ModeROT)

	first := r0.Read(x)
	r1 := m.Thread(1).Begin(htm.ModeROT)
	r1.Write(x, 1)
	if ab := tryTx(func() { r1.Commit() }); ab != nil {
		t.Fatalf("r1 aborted: %v", ab)
	}
	second := r0.Read(x)
	if ab := tryTx(func() { r0.Commit() }); ab != nil {
		t.Fatalf("r0 aborted: %v", ab)
	}
	if first != 0 || second != 1 {
		t.Fatalf("reads = (%d,%d); raw ROTs were expected to expose (0,1)", first, second)
	}
	checkQuiescent(t, m)
}
