package htm_test

import (
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/topology"
)

// newMachine builds a small machine for tests: `cores` cores with `smt`
// SMT ways and a TMCAM of `tmcam` lines per core.
func newMachine(t testing.TB, cores, smt, tmcam int) *htm.Machine {
	t.Helper()
	heap := memsim.NewHeapLines(1 << 12)
	return htm.NewMachine(heap, htm.Config{
		Topology:   topology.New(cores, smt),
		TMCAMLines: tmcam,
	})
}

// tryTx runs f, converting an abort panic into a return value.
func tryTx(f func()) (abort *htm.Abort) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*htm.Abort); ok {
				abort = a
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// allocLines allocates n line-aligned lines and returns their first-word
// addresses.
func allocLines(m *htm.Machine, n int) []memsim.Addr {
	addrs := make([]memsim.Addr, n)
	for i := range addrs {
		addrs[i] = m.Heap().AllocLine()
	}
	return addrs
}

func checkQuiescent(t *testing.T, m *htm.Machine) {
	t.Helper()
	if !m.DirectoryQuiescent() {
		t.Fatal("directory not quiescent after all transactions finished")
	}
}

func TestCommitPublishesWrites(t *testing.T) {
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		m := newMachine(t, 2, 1, 64)
		a := m.Heap().AllocLine()
		th := m.Thread(0)
		if ab := htm.Run(th, mode, func(tx *htm.Tx) {
			tx.Write(a, 7)
			tx.Write(a+1, 8)
		}); ab != nil {
			t.Fatalf("%v: unexpected abort %v", mode, ab)
		}
		if got := th.Load(a); got != 7 {
			t.Fatalf("%v: word 0 = %d, want 7", mode, got)
		}
		if got := th.Load(a + 1); got != 8 {
			t.Fatalf("%v: word 1 = %d, want 8", mode, got)
		}
		checkQuiescent(t, m)
	}
}

func TestWritesInvisibleBeforeCommit(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	a := m.Heap().AllocLine()
	t0, t1 := m.Thread(0), m.Thread(1)
	m.Heap().Store(a, 100)

	tx := t0.Begin(htm.ModeROT)
	tx.Write(a, 200)
	// The store is buffered: another thread's plain load must see the old
	// value (and dooms the writer, which is the hardware contract).
	if got := t1.Load(a); got != 100 {
		t.Fatalf("uncommitted write visible: Load = %d, want 100", got)
	}
	if ab := tryTx(func() { tx.Commit() }); ab == nil {
		t.Fatal("writer survived an invalidating plain load")
	} else if ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("abort code = %v, want non-tx-conflict", ab.Code)
	}
	if got := t1.Load(a); got != 100 {
		t.Fatalf("aborted write leaked: Load = %d, want 100", got)
	}
	checkQuiescent(t, m)
}

func TestExplicitAbortRollsBack(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	a := m.Heap().AllocLine()
	th := m.Thread(0)
	m.Heap().Store(a, 1)
	ab := tryTx(func() {
		tx := th.Begin(htm.ModeHTM)
		tx.Write(a, 2)
		tx.AbortExplicit()
	})
	if ab == nil || ab.Code != htm.CodeExplicit {
		t.Fatalf("abort = %v, want explicit", ab)
	}
	if got := th.Load(a); got != 1 {
		t.Fatalf("Load = %d, want 1 (rolled back)", got)
	}
	checkQuiescent(t, m)
}

func TestReadOwnWrites(t *testing.T) {
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		m := newMachine(t, 1, 1, 64)
		a := m.Heap().AllocLine()
		m.Heap().Store(a, 5)
		m.Heap().Store(a+1, 50)
		th := m.Thread(0)
		if ab := htm.Run(th, mode, func(tx *htm.Tx) {
			if got := tx.Read(a); got != 5 {
				t.Fatalf("%v: pre-write read = %d, want 5", mode, got)
			}
			tx.Write(a, 6)
			if got := tx.Read(a); got != 6 {
				t.Fatalf("%v: read-own-write = %d, want 6", mode, got)
			}
			// A word on a written line but not itself written still reads
			// the committed value.
			if got := tx.Read(a + 1); got != 50 {
				t.Fatalf("%v: sibling word = %d, want 50", mode, got)
			}
			tx.Write(a, 7) // overwrite in place
			if got := tx.Read(a); got != 7 {
				t.Fatalf("%v: second own write = %d, want 7", mode, got)
			}
		}); ab != nil {
			t.Fatalf("%v: unexpected abort %v", mode, ab)
		}
		if got := th.Load(a); got != 7 {
			t.Fatalf("%v: committed = %d, want 7", mode, got)
		}
		checkQuiescent(t, m)
	}
}

func TestRunCommitsAndReportsAborts(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	a := m.Heap().AllocLine()
	th := m.Thread(0)
	if ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) { tx.Write(a, 9) }); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
	if th.Load(a) != 9 {
		t.Fatal("Run did not commit")
	}
	ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) { tx.AbortExplicit() })
	if ab == nil || ab.Code != htm.CodeExplicit {
		t.Fatalf("Run abort = %v, want explicit", ab)
	}
	checkQuiescent(t, m)
}

func TestRunReleasesStateOnForeignPanic(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	a := m.Heap().AllocLine()
	th := m.Thread(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("foreign panic swallowed")
			}
		}()
		htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
			tx.Write(a, 1)
			panic("caller bug")
		})
	}()
	checkQuiescent(t, m)
	// The thread must be reusable.
	if ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) { tx.Write(a, 2) }); ab != nil {
		t.Fatalf("thread unusable after foreign panic: %v", ab)
	}
	if th.Load(a) != 2 {
		t.Fatal("commit after foreign panic failed")
	}
}

func TestMisusePanics(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	a := m.Heap().AllocLine()
	th := m.Thread(0)

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}

	tx := th.Begin(htm.ModeHTM)
	expectPanic("nested Begin", func() { th.Begin(htm.ModeROT) })
	expectPanic("plain Load in tx", func() { th.Load(a) })
	expectPanic("plain Store in tx", func() { th.Store(a, 1) })
	expectPanic("read-only path in tx", func() { th.ReadOnly() })
	expectPanic("Resume when not suspended", func() { tx.Resume() })
	tx.Suspend()
	expectPanic("double Suspend", func() { tx.Suspend() })
	expectPanic("Commit while suspended", func() { tx.Commit() })
	tx.Resume()
	tx.Commit()

	expectPanic("thread id out of range", func() { m.Thread(99) })
	checkQuiescent(t, m)
}

func TestModeAccessors(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	th := m.Thread(0)
	tx := th.Begin(htm.ModeROT)
	if tx.Mode() != htm.ModeROT || tx.Mode().String() != "ROT" {
		t.Fatalf("Mode = %v", tx.Mode())
	}
	if tx.Thread() != th {
		t.Fatal("Thread() mismatch")
	}
	if !th.InTx() {
		t.Fatal("InTx() = false during transaction")
	}
	if tx.Suspended() {
		t.Fatal("Suspended() = true before Suspend")
	}
	tx.Suspend()
	if !tx.Suspended() {
		t.Fatal("Suspended() = false after Suspend")
	}
	tx.Resume()
	tx.Commit()
	if th.InTx() {
		t.Fatal("InTx() = true after commit")
	}
	if htm.ModeHTM.String() != "HTM" {
		t.Fatal("ModeHTM.String() wrong")
	}
}

func TestAbortCodeStrings(t *testing.T) {
	want := map[htm.AbortCode]string{
		htm.CodeTxConflict:    "tx-conflict",
		htm.CodeNonTxConflict: "non-tx-conflict",
		htm.CodeCapacity:      "capacity",
		htm.CodeExplicit:      "explicit",
	}
	for code, s := range want {
		if code.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(code), code.String(), s)
		}
	}
	ab := &htm.Abort{Code: htm.CodeCapacity}
	if ab.Error() != "htm: transaction aborted: capacity" {
		t.Errorf("Error() = %q", ab.Error())
	}
}

func TestCompareAndSwapPlain(t *testing.T) {
	m := newMachine(t, 1, 1, 64)
	a := m.Heap().AllocLine()
	th := m.Thread(0)
	if !th.CompareAndSwap(a, 0, 42) {
		t.Fatal("CAS(0→42) failed on fresh word")
	}
	if th.CompareAndSwap(a, 0, 43) {
		t.Fatal("CAS(0→43) succeeded against value 42")
	}
	if th.Load(a) != 42 {
		t.Fatalf("Load = %d, want 42", th.Load(a))
	}
}

func TestCASDoomsSubscribers(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	lock := m.Heap().AllocLine()
	t0, t1 := m.Thread(0), m.Thread(1)

	tx := t0.Begin(htm.ModeHTM)
	if got := tx.Read(lock); got != 0 { // subscribe to the lock word
		t.Fatalf("lock subscription read = %d, want 0", got)
	}
	if !t1.CompareAndSwap(lock, 0, 1) { // SGL acquisition
		t.Fatal("lock CAS failed")
	}
	ab := tryTx(func() { tx.Read(lock + 1) })
	if ab == nil || ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("subscriber abort = %v, want non-tx-conflict", ab)
	}
	checkQuiescent(t, m)
}
