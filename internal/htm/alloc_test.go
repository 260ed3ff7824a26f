package htm_test

import (
	"testing"

	"sihtm/internal/hotbench"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/race"
	"sihtm/internal/topology"
)

// TestCommittedTxSteadyStateAllocs pins the whole simulated transaction
// path — Begin, tracked reads, buffered writes, Commit — at zero heap
// allocations per committed transaction once the thread's pooled
// footprint state is warm. This is the acceptance bar of the O(1)
// footprint-tracking work: the simulator must be able to run the
// paper's footprint sweeps without the Go allocator in the loop.
func TestCommittedTxSteadyStateAllocs(t *testing.T) {
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		t.Run(mode.String(), func(t *testing.T) {
			heap := memsim.NewHeapLines(256)
			m := htm.NewMachine(heap, htm.Config{Topology: topology.New(1, 1), TMCAMLines: 128})
			const lines = 24
			addrs := make([]memsim.Addr, lines)
			for i := range addrs {
				addrs[i] = heap.AllocLine()
			}
			th := m.Thread(0)
			body := func() {
				tx := th.Begin(mode)
				var sum uint64
				for _, a := range addrs {
					sum += tx.Read(a)
				}
				for _, a := range addrs {
					tx.Write(a, sum)
				}
				tx.Commit()
			}
			body() // warm up the pooled footprint state and directory pools
			if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
				t.Fatalf("steady-state committed %s transaction allocates %.1f/op, want 0", mode, allocs)
			}
			if !m.DirectoryQuiescent() {
				t.Fatal("directory not quiescent after runs")
			}
		})
	}
}

// TestLookupAllocs pins the Fig. 6 read-only lookup (hotbench's lookup
// case: a chain walk of ~100 plain loads through htm.ReadOnlyOps) and
// its read-modify-write (the rmw case: a session's Read then Insert in
// one ROT) at zero allocations: they are the whole of hashmap-large's
// read and update paths.
func TestLookupAllocs(t *testing.T) {
	for _, op := range []string{"lookup", "rmw"} {
		run := hotbench.CasesFor(op)[0].Setup()
		run(1)
		if allocs := testing.AllocsPerRun(100, func() { run(1) }); allocs != 0 && !race.Enabled {
			t.Fatalf("a Fig. 6 %s allocates %.1f/op, want 0", op, allocs)
		}
	}
}

// TestReadTxAllocs pins hotbench's readtx cases, whole read-only
// transactions on the paper topology, at zero allocations: the first
// tracked read allocates the reader table once, and no read after it
// allocates anything.
func TestReadTxAllocs(t *testing.T) {
	for _, c := range hotbench.CasesFor("readtx") {
		run := c.Setup()
		run(1)
		if allocs := testing.AllocsPerRun(100, func() { run(1) }); allocs != 0 && !race.Enabled {
			t.Fatalf("%s allocates %.1f/op, want 0", c.Name(), allocs)
		}
	}
}

// TestAtomicAllocs pins hotbench's atomic cases, whole update
// transactions of SI-HTM, Silo and P8TM at every swept footprint, at zero
// allocations: Silo's write set lives in its worker's pooled
// tm.Recorder, and P8TM hands its body a pointer-shaped tm.Ops.
func TestAtomicAllocs(t *testing.T) {
	for _, c := range hotbench.CasesFor("atomic") {
		run := c.Setup()
		run(1)
		if allocs := testing.AllocsPerRun(20, func() { run(1) }); allocs != 0 && !race.Enabled {
			t.Fatalf("%s allocates %.1f/op, want 0", c.Name(), allocs)
		}
	}
}

// TestAbortedTxSteadyStateAllocs is the same pin for the other way out of
// a transaction: Begin, writes, an abort of each cause a workload meets,
// the unwind to htm.Run and the clean-up. A conflict-heavy workload
// aborts once per retry, so an abort that allocates puts the allocator
// back in the loop the commit pin took it out of.
func TestAbortedTxSteadyStateAllocs(t *testing.T) {
	const tmcam = 8
	causes := []struct {
		code  htm.AbortCode
		lines int // lines the body writes before the abort lands
		last  func(tx *htm.Tx)
	}{
		{htm.CodeExplicit, 4, func(tx *htm.Tx) { tx.AbortExplicit() }},
		{htm.CodeCapacity, tmcam + 1, nil}, // the last write overflows
		{htm.CodeTxConflict, 4, nil},       // the last write meets a live writer
	}
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		for _, c := range causes {
			t.Run(mode.String()+"/"+c.code.String(), func(t *testing.T) {
				m := newMachine(t, 2, 1, tmcam)
				addrs := allocLines(m, c.lines)
				var holder *htm.Tx
				if c.code == htm.CodeTxConflict {
					holder = m.Thread(1).Begin(mode)
					holder.Write(addrs[len(addrs)-1], 1)
				}
				th := m.Thread(0)
				body := func(tx *htm.Tx) {
					for _, a := range addrs {
						tx.Write(a, 1)
					}
					if c.last != nil {
						c.last(tx)
					}
				}
				var got *htm.Abort
				attempt := func() { got = htm.Run(th, mode, body) }
				attempt() // warm up the pooled footprint state
				if got == nil || got.Code != c.code {
					t.Fatalf("abort = %v, want %v", got, c.code)
				}
				if allocs := testing.AllocsPerRun(100, attempt); allocs != 0 && !race.Enabled {
					t.Fatalf("steady-state aborted %s transaction allocates %.1f/op, want 0", mode, allocs)
				}
				if holder != nil {
					holder.Commit()
				}
				if !m.DirectoryQuiescent() {
					t.Fatal("directory not quiescent after runs")
				}
			})
		}
	}
}
