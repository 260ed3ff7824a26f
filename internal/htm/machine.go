package htm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"sihtm/internal/memsim"
	"sihtm/internal/topology"
)

// DefaultTMCAMLines is the paper's TMCAM: 8 KB of 128-byte lines.
const DefaultTMCAMLines = 64

// dirShards is the number of shards of the directory's tracked-reader
// table, a power of two; dirShardShift maps a line hash to its shard
// index (64 - log2(dirShards)).
const (
	dirShards     = 1024
	dirShardShift = 64 - 10
)

// maxThreadIDBits bounds the hardware-thread field of an ownership word
// (see directory.go), leaving at least 16 of its 32 bits to the
// incarnation tag.
const maxThreadIDBits = 16

// Config parameterises a simulated machine.
type Config struct {
	// Topology is the core/SMT layout. Zero value means the paper's
	// 10-core SMT-8 POWER8.
	Topology topology.Topology
	// TMCAMLines is the per-core transactional buffer capacity in cache
	// lines, shared by the core's SMT threads. 0 means DefaultTMCAMLines.
	TMCAMLines int
	// ROTReadTrackEvery models the footnote in §3: "due to
	// implementation-specific reasons, the TMCAM can also track a small
	// fraction of reads in a ROT". If > 0, every n-th distinct line read
	// by a ROT is tracked (and charged) as if it were a regular
	// transactional read. 0 (the default) disables the effect.
	ROTReadTrackEvery int
}

func (c Config) withDefaults() Config {
	if c.Topology == (topology.Topology{}) {
		c.Topology = topology.Paper()
	}
	if c.TMCAMLines == 0 {
		c.TMCAMLines = DefaultTMCAMLines
	}
	return c
}

// coreState is the per-core TMCAM occupancy counter, padded so cores do
// not false-share.
type coreState struct {
	used atomic.Int64 // tracked lines by all live transactions on this core
	// committing counts this core's in-flight hardware commits. It is
	// maintained only while a commit hook is installed: hooked fall-back
	// paths use QuiesceCommits to order their redo records after every
	// commit that raced their lock acquisition.
	committing atomic.Int64
	_          [112]byte
}

// Machine is a simulated POWER8/9 multicore with HTM. It owns the
// conflict-detection directory and the per-core TMCAM accounting, and
// hands out Thread handles bound to hardware threads.
type Machine struct {
	cfg     Config
	heap    *memsim.Heap
	cores   []coreState
	owner   []atomic.Uint32 // one ownership word per heap line (directory.go)
	shards  []shard         // tracked-reader side table
	threads []Thread

	// hook, when non-nil, brackets every committed write set's
	// publication (see CommitHook). Set before workers start; read
	// unsynchronized on the commit hot path.
	hook CommitHook

	// idMask covers the hardware-thread field of an ownership word,
	// bits.Len(MaxThreads) wide; the incarnation tag takes the rest.
	idMask uint32
}

// NewMachine builds a machine over the given heap.
func NewMachine(heap *memsim.Heap, cfg Config) *Machine {
	if heap == nil {
		panic("htm: NewMachine requires a heap")
	}
	cfg = cfg.withDefaults()
	idBits := uint(bits.Len(uint(cfg.Topology.MaxThreads())))
	if idBits > maxThreadIDBits {
		panic(fmt.Sprintf("htm: topology has %d hardware threads, an ownership word can name at most %d",
			cfg.Topology.MaxThreads(), 1<<maxThreadIDBits-1))
	}
	m := &Machine{
		cfg:    cfg,
		heap:   heap,
		cores:  make([]coreState, cfg.Topology.Cores()),
		owner:  make([]atomic.Uint32, (heap.Size()+memsim.WordsPerLine-1)/memsim.WordsPerLine),
		shards: make([]shard, dirShards),
		idMask: 1<<idBits - 1,
	}
	for i := range m.shards {
		m.shards[i].lines = make(map[memsim.Line]*lineEntry)
	}
	m.threads = make([]Thread, cfg.Topology.MaxThreads())
	for i := range m.threads {
		core, _ := cfg.Topology.Place(i)
		m.threads[i] = Thread{m: m, id: i, core: core}
		m.threads[i].tx.word = uint32(i + 1) // incarnation 0; Begin bumps it
	}
	return m
}

// Heap returns the machine's memory.
func (m *Machine) Heap() *memsim.Heap { return m.heap }

// Topology returns the machine's core/SMT layout.
func (m *Machine) Topology() topology.Topology { return m.cfg.Topology }

// TMCAMLines returns the per-core transactional buffer capacity.
func (m *Machine) TMCAMLines() int { return m.cfg.TMCAMLines }

// Thread returns the handle for hardware thread id (see topology.Place
// for the id → core mapping). The returned pointer is stable and must be
// used by at most one goroutine at a time.
func (m *Machine) Thread(id int) *Thread {
	if id < 0 || id >= len(m.threads) {
		panic(fmt.Sprintf("htm: thread id %d out of range [0,%d)", id, len(m.threads)))
	}
	return &m.threads[id]
}

// CoreUsage reports the TMCAM lines currently charged on a core. Intended
// for tests and introspection.
func (m *Machine) CoreUsage(core int) int {
	return int(m.cores[core].used.Load())
}

// DirectoryQuiescent reports whether the conflict-detection directory has
// no owned line, no reader registration and no TMCAM charge anywhere —
// the expected state when no transaction is live. Intended for tests: a
// false result after all transactions finished indicates a bookkeeping
// leak.
func (m *Machine) DirectoryQuiescent() bool {
	for i := range m.cores {
		if m.cores[i].used.Load() != 0 {
			return false
		}
	}
	for i := range m.owner {
		if m.owner[i].Load() != 0 {
			return false
		}
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n := len(s.lines)
		r := s.readers.Load()
		s.mu.Unlock()
		if n != 0 || r != 0 {
			return false
		}
	}
	return true
}

// QuiesceCommits blocks until no hardware commit is in flight anywhere
// on the machine. The in-flight counters are maintained only while a
// commit hook is installed; without one the wait returns immediately.
// The caller must guarantee no new commits can start (e.g. it holds the
// SGL and every active transaction is subscribed to it), otherwise the
// wait may not terminate.
func (m *Machine) QuiesceCommits() {
	for i := range m.cores {
		for m.cores[i].committing.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// charge attempts to reserve n TMCAM lines on a core, reporting success.
func (m *Machine) charge(core int, n int64) bool {
	if m.cores[core].used.Add(n) > int64(m.cfg.TMCAMLines) {
		m.cores[core].used.Add(-n)
		return false
	}
	return true
}

// uncharge releases n TMCAM lines on a core.
func (m *Machine) uncharge(core int, n int64) {
	if n != 0 {
		m.cores[core].used.Add(-n)
	}
}
