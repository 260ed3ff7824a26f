// Package topology models the processor topology of the machine the paper
// evaluates on: one IBM POWER8 8284-22A with 10 cores, each supporting up
// to 8 simultaneous multi-threading (SMT) hardware threads.
//
// Topology matters to the simulation for exactly one reason: the TMCAM
// transactional buffer is a per-core resource shared by all SMT threads
// co-located on that core (paper §2.2), so the mapping from software
// thread to core determines how HTM capacity is divided. The paper's
// experiments pin threads "spread first, then stack": thread counts
// 1..10 land one per core, and larger counts stack additional SMT
// threads on already-used cores (16 → SMT-2 on six cores, 40 → SMT-4,
// 80 → SMT-8).
package topology

import "fmt"

// Paper machine: IBM POWER8 8284-22A, 10 cores, SMT-8.
const (
	PaperCores   = 10
	PaperSMTWays = 8
)

// PaperThreadLadder is the x-axis used by every figure in the paper's
// evaluation (§4): "Number of threads (1,2,4,8,16,32,40,80)".
var PaperThreadLadder = []int{1, 2, 4, 8, 16, 32, 40, 80}

// Topology describes a simulated multicore with SMT.
type Topology struct {
	cores   int
	smtWays int
}

// New returns a topology with the given core count and SMT ways per core.
// It panics if either is not positive, mirroring make()'s behaviour for
// nonsensical sizes: a topology is always constructed from trusted
// configuration.
func New(cores, smtWays int) Topology {
	if cores <= 0 {
		panic(fmt.Sprintf("topology: cores must be positive, got %d", cores))
	}
	if smtWays <= 0 {
		panic(fmt.Sprintf("topology: smtWays must be positive, got %d", smtWays))
	}
	return Topology{cores: cores, smtWays: smtWays}
}

// Paper returns the paper's evaluation machine: 10 cores × SMT-8.
func Paper() Topology { return New(PaperCores, PaperSMTWays) }

// Cores returns the number of cores.
func (t Topology) Cores() int { return t.cores }

// SMTWays returns the maximum hardware threads per core.
func (t Topology) SMTWays() int { return t.smtWays }

// MaxThreads returns the total hardware thread capacity.
func (t Topology) MaxThreads() int { return t.cores * t.smtWays }

// Place maps a software thread id to its (core, smtSlot) under the
// spread-then-stack pinning policy used in the paper's run scripts:
// thread i runs on core i%cores, in SMT slot i/cores.
func (t Topology) Place(thread int) (core, smtSlot int) {
	if thread < 0 || thread >= t.MaxThreads() {
		panic(fmt.Sprintf("topology: thread %d out of range [0,%d)", thread, t.MaxThreads()))
	}
	return thread % t.cores, thread / t.cores
}

// ActiveSMTLevel reports the maximum number of SMT threads that share any
// single core when the first n threads are placed. This is the "SMT-n"
// level the paper refers to (e.g. 16 threads on 10 cores → SMT-2).
func (t Topology) ActiveSMTLevel(n int) int {
	if n <= 0 {
		return 0
	}
	if n > t.MaxThreads() {
		n = t.MaxThreads()
	}
	return (n + t.cores - 1) / t.cores
}

// ThreadsOnCore reports how many of the first n threads land on the given
// core under the Place policy.
func (t Topology) ThreadsOnCore(core, n int) int {
	if core < 0 || core >= t.cores {
		panic(fmt.Sprintf("topology: core %d out of range [0,%d)", core, t.cores))
	}
	if n <= 0 {
		return 0
	}
	if n > t.MaxThreads() {
		n = t.MaxThreads()
	}
	full := n / t.cores
	if core < n%t.cores {
		return full + 1
	}
	return full
}

// String implements fmt.Stringer.
func (t Topology) String() string {
	return fmt.Sprintf("%d cores × SMT-%d", t.cores, t.smtWays)
}
