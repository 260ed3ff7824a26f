package durable

import (
	"path/filepath"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
)

// TestDurableCommitZeroAllocs pins the acceptance criterion: a
// steady-state durable commit adds zero heap allocations on the TM hot
// path. The log runs without its daemon and the thread is claimed
// (ClaimAck), so Atomic returns at commit and the measurement covers
// exactly the capture path — PreCommit
// (barrier + sequencing + record encoding into the retained append
// buffer), write-back, PostCommit — with all file I/O excluded; Sync
// between warm-up and measurement resets the buffer length while
// keeping its capacity, so encoding never grows it mid-measurement.
func TestDurableCommitZeroAllocs(t *testing.T) {
	for _, name := range []string{"htm", "si-htm"} {
		t.Run(name, func(t *testing.T) {
			heap := memsim.NewHeapLines(64)
			addrs := [4]memsim.Addr{heap.AllocLine(), heap.AllocLine(), heap.AllocLine(), heap.AllocLine()}
			m := htm.NewMachine(heap, htm.Config{Topology: topology.New(2, 2)})
			var sys tm.System
			if name == "htm" {
				sys = htmtm.NewSystem(m, 1, htmtm.Config{})
			} else {
				sys = sihtm.NewSystem(m, 1, sihtm.Config{})
			}
			store, err := Open(heap, filepath.Join(t.TempDir(), "wal.log"), 4, Config{NoDaemon: true})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			store.ClaimAck(0)
			dsys := store.Attach(sys, m)

			// The transaction body is hoisted out of the op loop so the
			// pin measures the TM + log-capture path, not the caller's
			// per-call closure construction.
			body := func(ops tm.Ops) {
				for _, a := range addrs {
					ops.Write(a, ops.Read(a)+1)
				}
			}
			op := func() { dsys.Atomic(0, tm.KindUpdate, body) }
			for i := 0; i < 2048; i++ { // warm pools and grow the append buffer
				op()
			}
			if err := store.Sync(); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
				t.Errorf("%s: durable commit allocates %.2f objects/op at steady state, want 0", name, allocs)
			}
		})
	}
}
