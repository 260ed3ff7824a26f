package htm_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/race"
	isihtm "sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// The tests in this file hold the ownership-word protocol written out in
// directory.go. None of them sleeps: the scripted ones drive several
// hardware threads from one goroutine, the concurrent ones wait on
// channels.

// A doomed owner that has not cleaned up yet loses its line to the next
// claimant; when it does clean up it must leave the stealer's word
// alone, or the stealer would hold a line nobody can see it holds.
func TestStolenLineSurvivesVictimCleanup(t *testing.T) {
	m := newMachine(t, 3, 1, 64)
	x := m.Heap().AllocLine()
	t1 := m.Thread(0).Begin(htm.ModeROT)
	t1.Write(x, 1)

	if got := m.Thread(1).Load(x); got != 0 { // dooms t1
		t.Fatalf("plain load saw %d, want the committed 0", got)
	}
	if !t1.Doomed() {
		t.Fatal("plain load of a written line did not doom the writer")
	}
	t2 := m.Thread(1).Begin(htm.ModeROT)
	if ab := tryTx(func() { t2.Write(x, 2) }); ab != nil { // steals x
		t.Fatalf("claim of a doomed owner's line aborted: %v", ab)
	}
	ab := tryTx(func() { t1.Read(x + 1) }) // t1 unwinds and cleans up
	if ab == nil || ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("victim abort = %v, want non-tx-conflict", ab)
	}

	if got := m.Thread(2).Load(x); got != 0 { // must still find t2
		t.Fatalf("plain load saw %d, want the committed 0", got)
	}
	ab = tryTx(func() { t2.Commit() })
	if ab == nil || ab.Code != htm.CodeNonTxConflict {
		t.Fatalf("stealer outlived a load of its line: abort = %v", ab)
	}
	if got := m.Thread(2).Load(x); got != 0 {
		t.Fatalf("x = %d after both writers aborted, want 0", got)
	}
	checkQuiescent(t, m)
}

// The same hand-off, with the stealer left alone: it commits, its value
// is the one published, and the victim's late clean-up releases nothing
// of the stealer's.
func TestStolenLineCommits(t *testing.T) {
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		m := newMachine(t, 2, 1, 64)
		x := m.Heap().AllocLine()
		victim := m.Thread(0).Begin(mode)
		victim.Write(x, 1)
		m.Thread(1).Load(x)
		stealer := m.Thread(1).Begin(mode)
		stealer.Write(x, 2)
		if m.CoreUsage(0) != 1 || m.CoreUsage(1) != 1 {
			t.Fatalf("%v: TMCAM charge = %d,%d, want 1,1 until the victim unwinds", mode, m.CoreUsage(0), m.CoreUsage(1))
		}
		if ab := tryTx(func() { victim.Commit() }); ab == nil {
			t.Fatalf("%v: doomed victim committed", mode)
		}
		if ab := tryTx(func() { stealer.Commit() }); ab != nil {
			t.Fatalf("%v: stealer aborted: %v", mode, ab)
		}
		if got := m.Thread(0).Load(x); got != 2 {
			t.Fatalf("%v: x = %d, want the stealer's 2", mode, got)
		}
		checkQuiescent(t, m)
	}
}

// Protocol rule 2, deterministically. The lost update a missing tag causes
// needs a stealer to stall between judging an owner dead and its CAS while
// that owner unwinds, restarts and claims the same line again — too rare
// to wait for (about one in a million increments in the stress test
// below). What makes it impossible is checkable directly: the word a
// thread installs on re-claiming a line differs from the one its aborted
// incarnation held, so the stalled stealer's CAS finds a mismatch.
func TestReclaimedLineCarriesNewIncarnation(t *testing.T) {
	m := newMachine(t, 2, 1, 64)
	x := m.Heap().AllocLine()
	seen := map[uint32]bool{}
	for round := 0; round < 100; round++ {
		tx := m.Thread(1).Begin(htm.ModeROT)
		tx.Write(x, 1)
		word, thread := m.OwnerWord(x)
		if thread != 1 {
			t.Fatalf("round %d: word %#x names thread %d, want 1", round, word, thread)
		}
		if seen[word] {
			t.Fatalf("round %d: word %#x was already used by an earlier incarnation", round, word)
		}
		seen[word] = true
		m.Thread(0).Load(x) // doom it
		if ab := tryTx(func() { tx.Commit() }); ab == nil {
			t.Fatalf("round %d: doomed writer committed", round)
		}
		if word, _ := m.OwnerWord(x); word != 0 {
			t.Fatalf("round %d: word %#x left behind by cleanup", round, word)
		}
	}
	checkQuiescent(t, m)
}

// gateHook is a CommitHook whose PreCommit parks hardware thread 0's
// commit until the test lets it go; other threads' commits pass through.
type gateHook struct {
	entered chan struct{} // thread 0 reached PreCommit
	release chan struct{} // closed by the test
	posted  atomic.Bool   // thread 0's PostCommit ran
}

func (g *gateHook) PreCommit(thread int, _ []footprint.Entry) {
	if thread == 0 {
		g.entered <- struct{}{}
		<-g.release
	}
}

func (g *gateHook) PostCommit(thread int) {
	if thread == 0 {
		g.posted.Store(true)
	}
}

// An access to a line whose writer is inside its commit can neither doom
// it nor overtake it: it returns only once the words are cleared, which
// is after the whole write-back and PostCommit.
func TestAccessDrainsCommittingWriter(t *testing.T) {
	accesses := []struct {
		name string
		do   func(th *htm.Thread, x memsim.Addr) uint64
		want uint64 // value of x afterwards
	}{
		{"plain load", func(th *htm.Thread, x memsim.Addr) uint64 { return th.Load(x) }, 7},
		{"ROT read", func(th *htm.Thread, x memsim.Addr) (v uint64) {
			retryTx(th, htm.ModeROT, func(tx *htm.Tx) { v = tx.Read(x) })
			return v
		}, 7},
		{"HTM read", func(th *htm.Thread, x memsim.Addr) (v uint64) {
			retryTx(th, htm.ModeHTM, func(tx *htm.Tx) { v = tx.Read(x) })
			return v
		}, 7},
		{"plain store", func(th *htm.Thread, x memsim.Addr) uint64 { th.Store(x, 9); return 7 }, 9},
		{"ROT write", func(th *htm.Thread, x memsim.Addr) uint64 {
			// A claim does not wait, it self-aborts and is retried, so it
			// lands after the commit all the same.
			retryTx(th, htm.ModeROT, func(tx *htm.Tx) { tx.Write(x, 9) })
			return 7
		}, 9},
	}
	for _, ac := range accesses {
		t.Run(ac.name, func(t *testing.T) {
			m := newMachine(t, 2, 1, 64)
			hook := &gateHook{entered: make(chan struct{}), release: make(chan struct{})}
			m.SetCommitHook(hook)
			x := m.Heap().AllocLine()

			committed := make(chan struct{})
			go func() {
				defer close(committed)
				tx := m.Thread(0).Begin(htm.ModeROT)
				tx.Write(x, 7)
				tx.Write(x+memsim.WordsPerLine, 7) // a second line: the write-back has a prefix
				tx.Commit()
			}()
			<-hook.entered

			type outcome struct {
				saw    uint64
				posted bool
			}
			done := make(chan outcome, 1)
			go func() {
				saw := ac.do(m.Thread(1), x)
				done <- outcome{saw, hook.posted.Load()}
			}()
			// Give the access every chance to get ahead of the commit.
			for i := 0; i < 1000; i++ {
				runtime.Gosched()
				select {
				case o := <-done:
					t.Fatalf("access returned %d while the writer sat in PreCommit", o.saw)
				default:
				}
			}
			close(hook.release)
			o := <-done
			<-committed
			if !o.posted {
				t.Error("access returned before PostCommit")
			}
			if o.saw != 7 {
				t.Errorf("access saw %d, want the committed 7", o.saw)
			}
			if got := m.Heap().Load(x); got != ac.want {
				t.Errorf("x = %d afterwards, want %d", got, ac.want)
			}
			checkQuiescent(t, m)
		})
	}
}

// The shape that catches a missing incarnation tag: two hot words, many
// writers retrying on abort, and loads from every side — each writer
// first reads the other hot line, a plain loader reads both — dooming
// whoever holds a line, so that doomed owners are stolen from while they
// restart and re-claim. Every increment claims its line before reading
// it, which makes it atomic under ROTs as well; a lost update shows as a
// short sum. This is a net, not a proof: with the tag removed it loses
// about one increment in a million, so a run this size passes more often
// than not — TestReclaimedLineCarriesNewIncarnation is the guard that
// fails every time. Without the race detector slowing it down the test
// can afford, and takes, a far larger draw.
// The HTM pass adds tracked reads, so writers and readers also meet
// through the Dekker pairing of protocol rule 4.
func TestHotLineHandOffLosesNoUpdate(t *testing.T) {
	const writers = 4
	perWriter := 20000
	if !race.Enabled && !testing.Short() {
		perWriter = 500000
	}
	for _, mode := range []htm.Mode{htm.ModeROT, htm.ModeHTM} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMachine(t, writers+1, 1, htm.DefaultTMCAMLines)
			hot := allocLines(m, 2)

			var stop atomic.Bool
			loaderDone := make(chan struct{})
			go func() {
				defer close(loaderDone)
				th := m.Thread(writers)
				for !stop.Load() {
					th.Load(hot[0])
					th.Load(hot[1])
					runtime.Gosched()
				}
			}()
			var wg sync.WaitGroup
			for id := 0; id < writers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := m.Thread(id)
					for i := 0; i < perWriter; i++ {
						x, other := hot[(i+id)&1], hot[(i+id+1)&1]
						retryTx(th, mode, func(tx *htm.Tx) {
							tx.Read(other)   // dooms whoever holds the other line
							tx.Write(x+1, 1) // claim the line, then read it
							tx.Write(x, tx.Read(x)+1)
						})
					}
				}(id)
			}
			wg.Wait()
			stop.Store(true)
			<-loaderDone

			sum := m.Thread(0).Load(hot[0]) + m.Thread(0).Load(hot[1])
			if want := uint64(writers * perWriter); sum != want {
				t.Fatalf("hot words sum to %d after %d committed increments", sum, want)
			}
			checkQuiescent(t, m)
		})
	}
}

// An ownership word keeps at most 16 bits for the hardware thread; a
// topology that needs more must be refused, not truncated.
func TestNewMachineRejectsTooManyThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine accepted 65536 hardware threads")
		}
	}()
	htm.NewMachine(memsim.NewHeapLines(1), htm.Config{Topology: topology.New(1<<13, 8)})
}

// runKVMix drives a kv-update-shaped mix through sys on two threads:
// every fourth transaction reads eight words, the others read eight and
// increment four of them. It checks that each increment landed once.
func runKVMix(t *testing.T, m *htm.Machine, sys tm.System) {
	t.Helper()
	const threads, keys, txs = 2, 64, 2000
	addrs := allocLines(m, keys)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < txs; i++ {
				k := (i*7 + id) % (keys - 8)
				if i%4 == 3 {
					sys.Atomic(id, tm.KindReadOnly, func(ops tm.Ops) {
						for j := 0; j < 8; j++ {
							ops.Read(addrs[k+j])
						}
					})
					continue
				}
				sys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					for j := 0; j < 8; j++ {
						v := ops.Read(addrs[k+j])
						if j%2 == 0 {
							ops.Write(addrs[k+j], v+1)
						}
					}
				})
			}
		}(id)
	}
	wg.Wait()

	var sum uint64
	for _, a := range addrs {
		sum += m.Thread(0).Load(a)
	}
	if want := uint64(threads * (txs - txs/4) * 4); sum != want {
		t.Fatalf("words sum to %d, want %d", sum, want)
	}
}

// SI-HTM is ROT writes, untracked reads and a read-only fast path: none
// of it tracks a read, so a machine that runs it never allocates the
// reader table.
func TestSIHTMPathAllocatesNoReaderTable(t *testing.T) {
	m := newMachine(t, 2, 1, htm.DefaultTMCAMLines)
	runKVMix(t, m, isihtm.NewSystem(m, 2, isihtm.Config{}))
	if m.HasReaderTable() {
		t.Fatal("an SI-HTM run allocated the reader table")
	}
	checkQuiescent(t, m)
}

// The converse: htm's regular transactions track every read and the SGL
// subscription, so they allocate the table, and once they have finished
// every reader word is clear again.
func TestHTMPathClearsItsReaderBits(t *testing.T) {
	m := newMachine(t, 2, 1, htm.DefaultTMCAMLines)
	runKVMix(t, m, htmtm.NewSystem(m, 2, htmtm.Config{}))
	if !m.HasReaderTable() {
		t.Fatal("an HTM run left the reader table unallocated")
	}
	checkQuiescent(t, m)
}
