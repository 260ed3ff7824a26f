package durable

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/silo"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/wal"
)

// snapshotHeap copies the heap image (words + allocation watermark).
func snapshotHeap(h *memsim.Heap) ([]uint64, int) {
	img := make([]uint64, h.Size())
	for a := range img {
		img[a] = h.Load(memsim.Addr(a))
	}
	return img, h.Allocated()
}

// restoreHeap writes an image into a fresh heap of the same geometry.
func restoreHeap(h *memsim.Heap, img []uint64, allocated int) {
	for a, v := range img {
		h.Store(memsim.Addr(a), v)
	}
	h.RestoreAllocated(allocated)
}

func heapsEqual(t *testing.T, want, got *memsim.Heap, label string) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("%s: heap sizes differ (%d vs %d)", label, want.Size(), got.Size())
	}
	diffs := 0
	for a := 0; a < want.Size(); a++ {
		if w, g := want.Load(memsim.Addr(a)), got.Load(memsim.Addr(a)); w != g {
			if diffs < 5 {
				t.Errorf("%s: word %d = %d, want %d", label, a, g, w)
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Fatalf("%s: %d words differ", label, diffs)
	}
}

// sysFactory builds a system over a fresh machine/heap. The tiny TMCAM
// forces the HTM-based systems onto their SGL fall-back regularly, so
// both the hardware hook and the Recorder path are exercised.
type sysFactory struct {
	name string
	mk   func(heap *memsim.Heap, threads int) (tm.System, *htm.Machine)
}

func factories() []sysFactory {
	newMachine := func(h *memsim.Heap) *htm.Machine {
		return htm.NewMachine(h, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 8})
	}
	return []sysFactory{
		{"htm", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return htmtm.NewSystem(m, n, htmtm.Config{}), m
		}},
		{"si-htm", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return sihtm.NewSystem(m, n, sihtm.Config{}), m
		}},
		{"p8tm", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return p8tm.NewSystem(m, n, p8tm.Config{}), m
		}},
		{"sgl", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return sgl.NewSystem(m, n), m
		}},
		{"silo", func(h *memsim.Heap, n int) (tm.System, *htm.Machine) {
			m := newMachine(h)
			return silo.NewSystem(m, n), m
		}},
	}
}

// TestRecoveryMatchesLiveState: for every system, a concurrent mixed
// workload committed on a system the store is attached to recovers —
// from the base image plus the log alone — to exactly the live final
// heap.
func TestRecoveryMatchesLiveState(t *testing.T) {
	const threads, perThread, accounts = 4, 300, 8
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			heap := memsim.NewHeapLines(256)
			accts := make([]memsim.Addr, accounts)
			for i := range accts {
				accts[i] = heap.AllocLine()
				heap.Store(accts[i], 1000)
			}
			big := heap.AllocLines(32) // spills the 8-line TMCAM → fall-backs
			base, baseAlloc := snapshotHeap(heap)

			sys, m := f.mk(heap, threads)
			logPath := filepath.Join(t.TempDir(), "wal.log")
			store, err := Open(heap, logPath, 16, Config{})
			if err != nil {
				t.Fatal(err)
			}
			dsys := store.Attach(sys, m)

			var wg sync.WaitGroup
			for id := 0; id < threads; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					seed := uint64(id)*0x9e3779b97f4a7c15 + 1
					next := func(n int) int {
						seed = seed*6364136223846793005 + 1442695040888963407
						return int((seed >> 33) % uint64(n))
					}
					for i := 0; i < perThread; i++ {
						switch i % 5 {
						case 4: // read-only audit: must not reach the log
							dsys.Atomic(id, tm.KindReadOnly, func(ops tm.Ops) {
								s := uint64(0)
								for _, a := range accts {
									s += ops.Read(a)
								}
							})
						case 3: // large write set: forces the fall-back path
							dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
								for l := 0; l < 32; l++ {
									a := big + memsim.Addr(l*memsim.WordsPerLine)
									ops.Write(a, ops.Read(a)+1)
								}
							})
						default: // transfer
							from, to := accts[next(accounts)], accts[next(accounts)]
							amt := uint64(next(7))
							dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
								fv := ops.Read(from)
								if fv < amt || from == to {
									return
								}
								ops.Write(from, fv-amt)
								ops.Write(to, ops.Read(to)+amt)
							})
						}
					}
				}(id)
			}
			wg.Wait()
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := memsim.NewHeap(heap.Size())
			restoreHeap(recovered, base, baseAlloc)
			rep, err := Recover(recovered, "", logPath)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Replay.TailBytes != 0 {
				t.Fatalf("clean shutdown left a torn tail: %s", rep.Replay)
			}
			heapsEqual(t, heap, recovered, f.name)
			if rep.RecoveredSeq == 0 {
				t.Fatal("no transactions were logged")
			}
		})
	}
}

// TestFuzzyCheckpointEquivalence: checkpoints written while the
// workload runs recover to the same state as replaying the full log
// from the base image.
func TestFuzzyCheckpointEquivalence(t *testing.T) {
	const threads, perThread = 4, 400
	heap := memsim.NewHeapLines(128)
	cells := make([]memsim.Addr, 16)
	for i := range cells {
		cells[i] = heap.AllocLine()
	}
	base, baseAlloc := snapshotHeap(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 8})
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	ckptPath := filepath.Join(dir, "heap.ckpt")
	store, err := Open(heap, logPath, 16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				c := cells[(id*perThread+i)%len(cells)]
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					ops.Write(c, ops.Read(c)+1)
				})
			}
		}(id)
	}
	// Checkpoint repeatedly while the workload runs: each overwrite
	// leaves the newest complete image under ckptPath.
	workersDone := waitGroupDone(&wg)
	ckpts := 0
	for done := false; !done; {
		select {
		case <-workersDone:
			done = true
		default:
			if _, err := store.WriteCheckpoint(ckptPath); err != nil {
				t.Fatal(err)
			}
			ckpts++
		}
	}
	wg.Wait()
	if ckpts == 0 {
		t.Fatal("no fuzzy checkpoint was written while the workload ran")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	viaCkpt := memsim.NewHeap(heap.Size())
	repC, err := Recover(viaCkpt, ckptPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !repC.CheckpointUsed {
		t.Fatal("recovery did not use the checkpoint")
	}
	viaBase := memsim.NewHeap(heap.Size())
	restoreHeap(viaBase, base, baseAlloc)
	repB, err := Recover(viaBase, "", logPath)
	if err != nil {
		t.Fatal(err)
	}
	heapsEqual(t, viaBase, viaCkpt, "checkpoint-vs-full-replay")
	heapsEqual(t, heap, viaCkpt, "checkpoint-vs-live")
	if repC.RecoveredSeq != repB.RecoveredSeq {
		t.Fatalf("recovered seq differs: checkpoint %d, base %d", repC.RecoveredSeq, repB.RecoveredSeq)
	}
	if repC.Skipped == 0 && repC.Watermark > 0 {
		t.Errorf("watermark %d but no records were skipped", repC.Watermark)
	}
}

// TestCheckpointExcludesHeldLock: a fuzzy checkpoint taken while a
// thread holds the SGL must image the lock word as free. Acquire and
// release are plain accesses that nothing logs, so a captured hold
// would survive replay and the recovered heap would differ from the
// live one in exactly that word.
func TestCheckpointExcludesHeldLock(t *testing.T) {
	build := func() (*memsim.Heap, *htm.Machine, tm.System, *sgl.Lock, memsim.Addr) {
		heap := memsim.NewHeapLines(64)
		cell := heap.AllocLine()
		m := htm.NewMachine(heap, htm.Config{Topology: topology.New(2, 2)})
		return heap, m, sihtm.NewSystem(m, 2, sihtm.Config{}), sgl.New(m), cell
	}
	heap, m, sys, lock, cell := build()
	dir := t.TempDir()
	logPath, ckptPath := filepath.Join(dir, "wal.log"), filepath.Join(dir, "heap.ckpt")
	store, err := Open(heap, logPath, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)
	dsys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) { ops.Write(cell, 7) })

	th := m.Thread(1)
	lock.Acquire(th)
	if _, err := store.WriteCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	lock.Release(th)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, _, _, _, _ := build()
	rep, err := Recover(recovered, ckptPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CheckpointUsed {
		t.Fatal("recovery did not use the checkpoint")
	}
	heapsEqual(t, heap, recovered, "held-lock checkpoint vs live")
}

// waitGroupDone adapts a WaitGroup to a select-able channel.
func waitGroupDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// TestCrashPrefixAndAcks: the log image copied while the workload runs
// (the crash) recovers to an exact commit prefix that contains every
// transaction acknowledged before the copy.
func TestCrashPrefixAndAcks(t *testing.T) {
	const threads = 4
	heap := memsim.NewHeapLines(64)
	counter := heap.AllocLine()
	base, baseAlloc := snapshotHeap(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2)})
	sys := htmtm.NewSystem(m, threads, htmtm.Config{})
	logPath := filepath.Join(t.TempDir(), "wal.log")
	store, err := Open(heap, logPath, 16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dsys := store.Attach(sys, m)

	var acked atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !stop.Load() {
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					ops.Write(counter, ops.Read(counter)+1)
				})
				store.Log().WaitDurable(store.ThreadSeq(id)) // the acknowledgement
				acked.Add(1)
			}
		}(id)
	}

	store.Log().WaitDurable(100) // a crash with acknowledged history behind it
	// "Crash": snapshot the ack count, then copy the log file while
	// appends and fsyncs continue — exactly what a SIGKILL preserves.
	ackedAtCrash := acked.Load()
	crashImage := copyFile(t, logPath)
	stop.Store(true)
	wg.Wait()
	store.Close()

	recovered := memsim.NewHeap(heap.Size())
	restoreHeap(recovered, base, baseAlloc)
	rep, err := Recover(recovered, "", crashImage)
	if err != nil {
		t.Fatal(err)
	}
	// Every commit increments the counter once, and commits are
	// sequenced 1,2,3,...: an exact prefix of K commits leaves the
	// counter at exactly K.
	if got := recovered.Load(counter); got != rep.RecoveredSeq {
		t.Fatalf("counter = %d after recovering to seq %d: not an exact prefix", got, rep.RecoveredSeq)
	}
	if rep.RecoveredSeq < ackedAtCrash {
		t.Fatalf("recovered only %d commits but %d were acknowledged before the crash",
			rep.RecoveredSeq, ackedAtCrash)
	}
}

func copyFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := path + ".crash"
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAtomicBatchFallbackIsLogged: an SI-HTM batch whose write set
// overflows the TMCAM commits on the SGL fall-back; that path must
// publish through the commit hook like Atomic's, so the batch recovers
// from the log.
func TestAtomicBatchFallbackIsLogged(t *testing.T) {
	heap := memsim.NewHeapLines(256)
	big := heap.AllocLines(32) // 4x the 8-line TMCAM
	base, baseAlloc := snapshotHeap(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 8})
	sys := sihtm.NewSystem(m, 2, sihtm.Config{})
	logPath := filepath.Join(t.TempDir(), "wal.log")
	store, err := Open(heap, logPath, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	store.Attach(sys, m)

	bodies := make([]func(tm.Ops), 4)
	for b := range bodies {
		bodies[b] = func(ops tm.Ops) {
			for l := b * 8; l < (b+1)*8; l++ {
				a := big + memsim.Addr(l*memsim.WordsPerLine)
				ops.Write(a, ops.Read(a)+uint64(l)+1)
			}
		}
	}
	sys.AtomicBatch(0, bodies)
	st := sys.Collector().Snapshot()
	if st.Fallbacks != 1 || st.Commits != 4 {
		t.Fatalf("fallbacks = %d, commits = %d; want the batch on the fall-back: 1, 4", st.Fallbacks, st.Commits)
	}
	if got := st.Aborts[stats.AbortCapacity]; got != 2 {
		t.Errorf("capacity aborts = %d, want 2 (one grace retry, then the fall-back)", got)
	}
	if err := store.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := memsim.NewHeap(heap.Size())
	restoreHeap(recovered, base, baseAlloc)
	if _, err := Recover(recovered, "", logPath); err != nil {
		t.Fatal(err)
	}
	heapsEqual(t, heap, recovered, "si-htm batch")
}

// TestMachineHookLogsEveryPath: the machine is the commit hook's only
// seat. With the store installed by m.SetCommitHook alone, no Attach,
// an SI-HTM and an htm transaction that overflow the 8-line TMCAM
// commit on their SGL fall-backs, a Silo transaction commits by its OCC
// install, and all three reach the log: recovery of the log equals the
// live heap. Then Silo (its Recorder's install) and P8TM (a ROT commit)
// each commit a write set past the store buffer's 8-entry inline array,
// read before it is written, partly rewritten and read back: each logged
// record is the final write set in first-write order, and P8TM's
// validation skips the words it wrote, so it commits with no abort.
func TestMachineHookLogsEveryPath(t *testing.T) {
	heap := memsim.NewHeapLines(256)
	big := heap.AllocLines(32) // 4x the 8-line TMCAM
	cell := heap.AllocLine()
	wide := heap.AllocLines(3) // 12 words over 3 lines, within the TMCAM
	base, baseAlloc := snapshotHeap(heap)

	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 2), TMCAMLines: 8})
	logPath := filepath.Join(t.TempDir(), "wal.log")
	store, err := Open(heap, logPath, 8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCommitHook(store)

	overflow := func(ops tm.Ops) {
		for l := 0; l < 32; l++ {
			a := big + memsim.Addr(l*memsim.WordsPerLine)
			ops.Write(a, ops.Read(a)+uint64(l)+1)
		}
	}
	for _, sys := range []tm.System{
		sihtm.NewSystem(m, 1, sihtm.Config{}),
		htmtm.NewSystem(m, 1, htmtm.Config{}),
	} {
		sys.Atomic(0, tm.KindUpdate, overflow)
		if st := sys.Collector().Snapshot(); st.Fallbacks != 1 {
			t.Fatalf("%s: fallbacks = %d, want the transaction on the SGL fall-back", sys.Name(), st.Fallbacks)
		}
	}
	silo.NewSystem(m, 1).Atomic(0, tm.KindUpdate, func(ops tm.Ops) { ops.Write(cell, ops.Read(cell)+7) })

	// The wide write set: words 0-3 of each of the three lines, written
	// line by line, then words 0, 5 and 11 of that order rewritten.
	var words []memsim.Addr
	for l := 0; l < 3; l++ {
		for w := 0; w < 4; w++ {
			words = append(words, wide+memsim.Addr(l*memsim.WordsPerLine+w))
		}
	}
	rewritten := []int{11, 0, 5}
	var want [][]footprint.Entry
	for round, sys := range []tm.System{silo.NewSystem(m, 1), p8tm.NewSystem(m, 1, p8tm.Config{})} {
		bump := uint64(100 * (round + 1))
		sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
			for _, a := range words {
				ops.Write(a, ops.Read(a)+bump)
			}
			for _, i := range rewritten {
				ops.Write(words[i], ops.Read(words[i])+1)
			}
			for i, a := range words {
				want := heap.Load(a) + bump // the heap still holds the committed value
				if slices.Contains(rewritten, i) {
					want++
				}
				if got := ops.Read(a); got != want {
					t.Errorf("%s: read of own write %d = %d, want %d", sys.Name(), a, got, want)
				}
			}
		})
		if st := sys.Collector().Snapshot(); st.TotalAborts() != 0 || st.Fallbacks != 0 {
			t.Errorf("%s: %d aborts, %d fall-backs; want a first-attempt commit", sys.Name(), st.TotalAborts(), st.Fallbacks)
		}
		rec := make([]footprint.Entry, len(words))
		for i, a := range words {
			rec[i] = footprint.Entry{Addr: a, Val: heap.Load(a)}
		}
		want = append(want, rec)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	var logged [][]footprint.Entry
	if _, err := wal.Replay(logPath, func(_ uint64, entries []footprint.Entry) error {
		logged = append(logged, slices.Clone(entries))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 5 {
		t.Fatalf("logged %d records, want 5 (two fall-backs, three Silo and P8TM commits)", len(logged))
	}
	for i, name := range []string{"silo", "p8tm"} {
		if got := logged[3+i]; !slices.Equal(got, want[i]) {
			t.Errorf("%s: logged %v, want the final write set in first-write order %v", name, got, want[i])
		}
	}

	recovered := memsim.NewHeap(heap.Size())
	restoreHeap(recovered, base, baseAlloc)
	if _, err := Recover(recovered, "", logPath); err != nil {
		t.Fatal(err)
	}
	heapsEqual(t, heap, recovered, "machine hook")
}

// TestAttachLeavesTheWaitToTheCaller: Attach returns the very system it
// was given, whose Atomic returns at commit with the record logged but
// not durable; the caller's acknowledgement, Log().WaitDurable on the
// thread's sequence, blocks until the log is synced.
func TestAttachLeavesTheWaitToTheCaller(t *testing.T) {
	heap := memsim.NewHeapLines(16)
	word := heap.AllocLine()
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(2, 2)})
	store, err := Open(heap, filepath.Join(t.TempDir(), "wal.log"), 4, Config{NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sys := sihtm.NewSystem(m, 2, sihtm.Config{})
	if got := store.Attach(sys, m); got != tm.System(sys) {
		t.Fatalf("Attach returned %T %p, want the system it was given (%p)", got, got, sys)
	}

	// Nothing syncs the log: an Atomic that waited for it would never
	// return.
	sys.Atomic(0, tm.KindUpdate, func(ops tm.Ops) { ops.Write(word, ops.Read(word)+1) })
	if seq := store.ThreadSeq(0); seq != 1 || store.DurableSeq() != 0 {
		t.Fatalf("after Atomic: seq %d, durable %d; want 1 and 0", seq, store.DurableSeq())
	}

	acked := make(chan struct{})
	go func() {
		store.Log().WaitDurable(1)
		close(acked)
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case <-acked:
		t.Fatal("WaitDurable(1) returned before the log was synced")
	default:
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	<-acked
	if store.DurableSeq() != 1 {
		t.Fatalf("durable %d after Sync, want 1", store.DurableSeq())
	}
}
