package htm_test

import (
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/topology"
)

// Regular transactions are capacity-bounded by reads + writes.
func TestHTMReadCapacity(t *testing.T) {
	const tmcam = 8
	m := newMachine(t, 1, 1, tmcam)
	lines := allocLines(m, tmcam+1)
	th := m.Thread(0)
	ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
		for _, a := range lines {
			tx.Read(a)
		}
	})
	if ab == nil || ab.Code != htm.CodeCapacity {
		t.Fatalf("abort = %v, want capacity", ab)
	}
	// Exactly tmcam lines fit.
	if ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
		for _, a := range lines[:tmcam] {
			tx.Read(a)
		}
	}); ab != nil {
		t.Fatalf("transaction of exactly %d lines aborted: %v", tmcam, ab)
	}
	checkQuiescent(t, m)
}

// ROT reads are untracked: a ROT can read far beyond the TMCAM — the core
// capacity stretch the paper builds on.
func TestROTReadsAreCapacityFree(t *testing.T) {
	const tmcam = 8
	m := newMachine(t, 1, 1, tmcam)
	lines := allocLines(m, 50*tmcam)
	th := m.Thread(0)
	if ab := htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		for _, a := range lines {
			tx.Read(a)
		}
		if tx.ReadSetLines() != 0 {
			t.Fatalf("ROT tracked %d read lines, want 0", tx.ReadSetLines())
		}
	}); ab != nil {
		t.Fatalf("large-read ROT aborted: %v", ab)
	}
	checkQuiescent(t, m)
}

// ROT writes are tracked and capacity-bounded.
func TestROTWriteCapacity(t *testing.T) {
	const tmcam = 8
	m := newMachine(t, 1, 1, tmcam)
	lines := allocLines(m, tmcam+1)
	th := m.Thread(0)
	ab := htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		for i, a := range lines {
			tx.Write(a, uint64(i))
		}
	})
	if ab == nil || ab.Code != htm.CodeCapacity {
		t.Fatalf("abort = %v, want capacity", ab)
	}
	for _, a := range lines {
		if th.Load(a) != 0 {
			t.Fatal("capacity-aborted writes leaked")
		}
	}
	checkQuiescent(t, m)
}

// Repeated access to the same line consumes one entry, and a read→write
// upgrade reuses the read entry.
func TestCapacityChargesPerDistinctLine(t *testing.T) {
	const tmcam = 2
	m := newMachine(t, 1, 1, tmcam)
	lines := allocLines(m, 3)
	th := m.Thread(0)
	if ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
		for i := 0; i < 100; i++ {
			tx.Read(lines[0])
			tx.Write(lines[0], uint64(i)) // upgrade: same entry
			tx.Read(lines[1])
		}
		if got := m.CoreUsage(0); got != tmcam {
			t.Fatalf("core usage = %d, want %d", got, tmcam)
		}
	}); ab != nil {
		t.Fatalf("aborted: %v", ab)
	}
	// The third line overflows.
	ab := htm.Run(th, htm.ModeHTM, func(tx *htm.Tx) {
		tx.Write(lines[0], 1)
		tx.Write(lines[1], 1)
		tx.Write(lines[2], 1)
	})
	if ab == nil || ab.Code != htm.CodeCapacity {
		t.Fatalf("abort = %v, want capacity", ab)
	}
	checkQuiescent(t, m)
}

// The TMCAM is shared by SMT threads co-located on a core (§2.2): two
// threads on one core split the budget, while threads on different cores
// each get the full budget.
func TestTMCAMSharedAcrossSMTThreads(t *testing.T) {
	const tmcam = 8
	heap := memsim.NewHeapLines(1 << 12)
	// 2 cores × SMT-2: threads 0,2 on core 0; threads 1,3 on core 1.
	m := htm.NewMachine(heap, htm.Config{
		Topology:   topology.New(2, 2),
		TMCAMLines: tmcam,
	})
	lines := allocLines(m, 2*tmcam)

	// Fill 6 of core 0's 8 entries from thread 0 and keep the tx live.
	tx0 := m.Thread(0).Begin(htm.ModeROT)
	for _, a := range lines[:6] {
		tx0.Write(a, 1)
	}

	// Thread 2 shares core 0: only 2 entries left.
	tx2 := m.Thread(2).Begin(htm.ModeROT)
	tx2.Write(lines[8], 1)
	tx2.Write(lines[9], 1)
	ab := tryTx(func() { tx2.Write(lines[10], 1) })
	if ab == nil || ab.Code != htm.CodeCapacity {
		t.Fatalf("SMT sibling abort = %v, want capacity", ab)
	}

	// Thread 1 is on core 1: full budget available despite core 0 being full.
	if ab := htm.Run(m.Thread(1), htm.ModeROT, func(tx *htm.Tx) {
		for _, a := range lines[tmcam : 2*tmcam] {
			tx.Write(a, 2)
		}
	}); ab != nil {
		t.Fatalf("other-core transaction aborted: %v", ab)
	}

	if ab := tryTx(func() { tx0.Commit() }); ab != nil {
		t.Fatalf("tx0 aborted: %v", ab)
	}
	// After tx0 commits, its 6 entries are released and thread 2 can run.
	if ab := htm.Run(m.Thread(2), htm.ModeROT, func(tx *htm.Tx) {
		for _, a := range lines[:6] {
			tx.Write(a, 3)
		}
	}); ab != nil {
		t.Fatalf("post-release transaction aborted: %v", ab)
	}
	checkQuiescent(t, m)
}

// An aborted transaction releases its TMCAM charge.
func TestAbortReleasesCapacity(t *testing.T) {
	const tmcam = 4
	m := newMachine(t, 1, 1, tmcam)
	lines := allocLines(m, tmcam)
	th := m.Thread(0)
	ab := htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		for _, a := range lines {
			tx.Write(a, 1)
		}
		tx.AbortExplicit()
	})
	if ab == nil {
		t.Fatal("explicit abort lost")
	}
	if got := m.CoreUsage(0); got != 0 {
		t.Fatalf("core usage after abort = %d, want 0", got)
	}
	if ab := htm.Run(th, htm.ModeROT, func(tx *htm.Tx) {
		for _, a := range lines {
			tx.Write(a, 2)
		}
	}); ab != nil {
		t.Fatalf("budget not released: %v", ab)
	}
	checkQuiescent(t, m)
}

func TestConfigDefaults(t *testing.T) {
	heap := memsim.NewHeapLines(16)
	m := htm.NewMachine(heap, htm.Config{})
	if m.TMCAMLines() != htm.DefaultTMCAMLines {
		t.Fatalf("TMCAMLines = %d, want %d", m.TMCAMLines(), htm.DefaultTMCAMLines)
	}
	if m.Topology().Cores() != topology.PaperCores || m.Topology().SMTWays() != topology.PaperSMTWays {
		t.Fatalf("default topology = %v, want paper machine", m.Topology())
	}
	if m.Heap() != heap {
		t.Fatal("Heap() mismatch")
	}
}
