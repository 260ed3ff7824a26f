// Package htm is a software simulator of the hardware transactional
// memory of the IBM POWER8/POWER9 processors ("P8-HTM" in the paper),
// faithful to the architectural contract that SI-HTM depends on:
//
//   - Conflict detection is eager, at 128-byte cache-line granularity,
//     with the 2PL-flavoured resolution the paper describes in §2.2: the
//     last transaction to read a line kills any previous transactional
//     writer of that line; on write-write conflicts the last writer is
//     killed.
//   - Capacity is bounded by the TMCAM, an 8 KB (64-line) per-core buffer
//     shared by all SMT threads co-located on a core. Every line tracked
//     by any live transaction on a core consumes one entry; overflowing
//     the shared budget aborts the requester with a capacity abort.
//   - Regular transactions (ModeHTM) track both reads and writes.
//     Rollback-only transactions (ModeROT) track only writes: ROT reads
//     behave like plain loads — they consume no capacity, they are
//     invisible to conflict detection as reads (so write-after-read is
//     tolerated, Fig. 2A), yet like any load they invalidate, i.e. doom,
//     a concurrent transactional writer of the same line (Fig. 2B).
//   - Transactional stores are buffered and invisible to other threads
//     until commit; commit applies the whole write set atomically.
//   - Suspend/resume: accesses made while a transaction is suspended are
//     plain, untracked accesses; conflicts that doom the transaction
//     while suspended take effect at resume.
//   - Aborts carry a cause — transactional conflict, non-transactional
//     conflict (a plain access, e.g. an SGL acquisition, killed the
//     transaction), capacity, or explicit — mirroring the POWER TEXASR
//     failure codes that the paper's evaluation discriminates.
//
// Abort delivery uses a typed panic (*Abort) that the transaction-runtime
// packages recover in their retry loops, mirroring how a real HTM abort
// transfers control to the tbegin. fallback path. The panic never crosses
// a public API boundary.
//
// What is deliberately not modelled: instruction-level timing, cache
// associativity, the POWER9 L2 LVDIR read-tracking structure (the paper
// argues it is incompatible with SMT workloads and does not use it), and
// the §3 footnote that the TMCAM may track "a small fraction of reads in
// a ROT": here a ROT tracks no read at all, so its capacity is bounded by
// its write set alone.
//
// Conflict detection costs what the paper says it costs in hardware:
// nothing shared in software. Write ownership is one atomic word per
// heap cache line, claimed with a compare-and-swap and released with a
// store; a tracked read sets its hardware thread's bit in the line's
// reader word and clears it at release. The reader words are allocated
// by the machine's first tracked read, so a machine that runs only ROTs
// and plain accesses — the whole of SI-HTM — never holds them. No
// access takes a mutex or touches a map (directory.go has the
// protocol). The unowned case is handled at each load site: a plain
// load, a ROT or suspended read, and the writer check of a plain store
// or CAS test the line's word in their own frame and, when it is zero,
// reach the heap word with no call and no shared write; only an owned
// line calls into the coherence action.
//
// The same words are each transaction's read and write sets. A
// transaction keeps only its buffered stores, in the O(1) write buffer
// of internal/footprint, and pooled lists of the lines it took, so the
// cost of a simulated access is independent of transaction size and a
// transaction, committed or aborted, allocates no heap memory in steady
// state — properties the hot-path benchmark suite (internal/hotbench,
// docs/performance.md) guards.
package htm
