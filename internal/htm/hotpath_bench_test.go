// Hot-path microbenchmarks: the software cost of one simulated
// transactional operation as a function of transaction footprint.
// These are thin testing.B views over internal/hotbench, which also
// backs `repro bench` and the BENCH_hotpath.json artifact; see
// docs/performance.md for how to read them.
//
// The file lives in the external test package so it can exercise the
// simulator through hotbench without an import cycle.
package htm_test

import (
	"testing"

	"sihtm/internal/hotbench"
)

func benchCases(b *testing.B, op string) {
	for _, c := range hotbench.CasesFor(op) {
		b.Run(c.Sub(), func(b *testing.B) {
			run := c.Setup()
			run(1)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// BenchmarkPlain measures one plain Thread.Load, and one global-lock
// acquire plus release, outside any transaction.
func BenchmarkPlain(b *testing.B) { benchCases(b, "plain") }

// BenchmarkRead measures steady-state Tx.Read at footprints of 1→4096
// tracked lines, in both HTM and ROT modes.
func BenchmarkRead(b *testing.B) { benchCases(b, "read") }

// BenchmarkWrite measures steady-state Tx.Write with write sets of
// 1→4096 lines, in both HTM and ROT modes.
func BenchmarkWrite(b *testing.B) { benchCases(b, "write") }

// BenchmarkCommit measures a full Begin + N×Write + Commit transaction;
// ns/op grows with N by construction, allocs/op must stay at zero.
func BenchmarkCommit(b *testing.B) { benchCases(b, "commit") }

// BenchmarkAbort measures a full Begin + N×Write + explicit abort under
// htm.Run: the unwind and the clean-up of N claimed lines, at zero
// allocs/op.
func BenchmarkAbort(b *testing.B) { benchCases(b, "abort") }

// BenchmarkCommit2T measures two hardware threads committing disjoint
// N-line ROT write sets side by side, in ns per committed transaction:
// what BenchmarkCommit costs once a second core shares the directory.
func BenchmarkCommit2T(b *testing.B) { benchCases(b, "commit-2t") }

// BenchmarkReadTx measures a whole read-only transaction on the paper
// topology, Begin + N first-touch Reads + Commit, for N of 1, 10 and
// 100 lines in both modes: HTM's gap over ROT is the cost of tracking.
func BenchmarkReadTx(b *testing.B) { benchCases(b, "readtx") }

// BenchmarkChase measures one node of a dependent pointer chase with
// plain Thread.Load over rings of 16 384 and 262 144 lines: the cost of
// the simulated memory itself, host page walk included.
func BenchmarkChase(b *testing.B) { benchCases(b, "chase") }

// BenchmarkLookup measures one read-only hash-map lookup of a uniformly
// drawn key over the populated Fig. 6 map (1000 chains of 200) through
// htm.ReadOnlyOps: the chain walk SI-HTM's read-only path runs.
func BenchmarkLookup(b *testing.B) { benchCases(b, "lookup") }

// BenchmarkRMW measures one read-modify-write of a uniformly drawn key
// over the same map, a session's Read then Insert inside one ROT: the
// update engine.Exec runs for OpRMW.
func BenchmarkRMW(b *testing.B) { benchCases(b, "rmw") }
