// Package crashtest is the crash-injection harness of the durability
// subsystem: it generates a real multi-threaded durable workload whose
// write-ahead log and per-prefix expected states are known exactly, then
// lets tests "kill" the log at arbitrary byte offsets — truncation,
// bit flips, zeroed spans, garbage tails — and asserts that recovery
// from the mutilated image always lands on a prefix-consistent state:
// exactly the heap produced by the first K logged commits for the K the
// replay reports, with the torn or corrupt tail detected by the
// per-record CRC and discarded.
package crashtest

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"sihtm/internal/durable"
	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/wal"
)

// Harness holds one generated history: the intact log image, the base
// heap it applies to, and the expected state digest after every prefix.
type Harness struct {
	// Image is the intact on-disk log produced by the workload.
	Image []byte
	// Records is the number of committed (and logged) transactions.
	Records int
	// Bounds[k] is the byte offset at which record k ends; Bounds[0] is
	// 0 and Bounds[Records] is len(Image).
	Bounds []int

	heapWords int
	base      []uint64
	allocated int
	// digests[k] is the heap digest after applying records 1..k.
	digests []uint64
}

// Build runs a concurrent durable workload (SI-HTM over a small
// machine, both hardware commits and SGL fall-backs) and captures its
// log plus the expected state of every commit prefix. dir receives the
// transient log file.
func Build(dir string, threads, perThread int) (*Harness, error) {
	heap := memsim.NewHeapLines(96)
	cells := make([]memsim.Addr, 8)
	for i := range cells {
		cells[i] = heap.AllocLine()
	}
	big := heap.AllocLines(16)
	h := &Harness{heapWords: heap.Size()}
	h.base = make([]uint64, heap.Size())
	for a := range h.base {
		h.base[a] = heap.Load(memsim.Addr(a))
	}
	h.allocated = heap.Allocated()

	// The tiny TMCAM pushes a share of the update transactions onto the
	// SGL fall-back, so the log interleaves hardware-hook records with
	// Recorder records — the mix recovery must handle.
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(2, 2), TMCAMLines: 8})
	sys := sihtm.NewSystem(m, threads, sihtm.Config{})
	logPath := filepath.Join(dir, "crash.log")
	store, err := durable.Open(heap, logPath, 8, durable.Config{})
	if err != nil {
		return nil, err
	}
	dsys := store.Attach(sys, m)

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := uint64(id)*0x9e3779b97f4a7c15 + 7
			next := func(n int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int((seed >> 33) % uint64(n))
			}
			for i := 0; i < perThread; i++ {
				if i%7 == 3 { // capacity-spilling transaction → fall-back
					dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
						for l := 0; l < 16; l++ {
							a := big + memsim.Addr(l*memsim.WordsPerLine)
							ops.Write(a, ops.Read(a)+uint64(id)+1)
						}
					})
					continue
				}
				c := cells[next(len(cells))]
				d := cells[next(len(cells))]
				dsys.Atomic(id, tm.KindUpdate, func(ops tm.Ops) {
					v := ops.Read(c)
					ops.Write(c, v+1)
					if d != c {
						ops.Write(d, ops.Read(d)^(v+13))
					}
				})
			}
		}(id)
	}
	wg.Wait()
	if err := store.Close(); err != nil {
		return nil, err
	}
	h.Image, err = os.ReadFile(logPath)
	if err != nil {
		return nil, err
	}

	// Walk the intact image once to learn record boundaries and the
	// expected digest after every prefix.
	replayHeap := memsim.NewHeap(h.heapWords)
	h.restoreBase(replayHeap)
	h.Bounds = append(h.Bounds, 0)
	h.digests = append(h.digests, digest(replayHeap))
	st, err := wal.ReplayBytes(h.Image, func(seq uint64, entries []footprint.Entry) error {
		if err := wal.Redo(replayHeap, entries); err != nil {
			return err
		}
		h.Records++
		h.digests = append(h.digests, digest(replayHeap))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st.TailBytes != 0 {
		return nil, fmt.Errorf("crashtest: intact log has a torn tail: %s", st)
	}
	// Reconstruct byte boundaries from the record framing.
	off := 0
	for k := 1; k <= h.Records; k++ {
		sz, ok := frameSize(h.Image[off:])
		if !ok {
			return nil, fmt.Errorf("crashtest: cannot re-frame record %d", k)
		}
		off += sz
		h.Bounds = append(h.Bounds, off)
	}
	if off != len(h.Image) {
		return nil, fmt.Errorf("crashtest: framing ends at %d of %d bytes", off, len(h.Image))
	}

	// The live heap must itself be the full-prefix state.
	if digest(heap) != h.digests[h.Records] {
		return nil, fmt.Errorf("crashtest: live state does not match full replay")
	}
	return h, nil
}

// frameSize reads one record's framed size without validating it.
func frameSize(b []byte) (int, bool) {
	if len(b) < 16 {
		return 0, false
	}
	count := int(uint32(b[12]) | uint32(b[13])<<8 | uint32(b[14])<<16 | uint32(b[15])<<24)
	return 16 + count*16 + 4, true
}

// restoreBase writes the pre-workload heap image into h2.
func (h *Harness) restoreBase(h2 *memsim.Heap) {
	for a, v := range h.base {
		h2.Store(memsim.Addr(a), v)
	}
	h2.RestoreAllocated(h.allocated)
}

// digest hashes a heap image (FNV-1a over the words).
func digest(h *memsim.Heap) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for a := 0; a < h.Size(); a++ {
		v := h.Load(memsim.Addr(a))
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	return f.Sum64()
}

// CheckImage recovers from a (possibly mutilated) log image and
// verifies prefix consistency: the replayed record count K must
// identify a prefix of the intact history, the recovered heap must
// equal the expected state after exactly K commits, and the reported
// sequence range must be 1..K. minRecords lower-bounds K (use the
// number of records known durable before the "crash"; 0 when unknown).
func (h *Harness) CheckImage(img []byte, minRecords int) error {
	heap := memsim.NewHeap(h.heapWords)
	h.restoreBase(heap)
	st, err := wal.ReplayBytes(img, func(_ uint64, entries []footprint.Entry) error {
		return wal.Redo(heap, entries)
	})
	if err != nil {
		return err
	}
	k := st.Records
	if k > h.Records {
		return fmt.Errorf("crashtest: replayed %d records, history has only %d", k, h.Records)
	}
	if k < minRecords {
		return fmt.Errorf("crashtest: replayed %d records, but %d were durable before the crash", k, minRecords)
	}
	if k > 0 && (st.FirstSeq != 1 || st.LastSeq != uint64(k)) {
		return fmt.Errorf("crashtest: replayed sequence range %d..%d for %d records; want 1..%d",
			st.FirstSeq, st.LastSeq, k, k)
	}
	if got, want := digest(heap), h.digests[k]; got != want {
		return fmt.Errorf("crashtest: recovered state after %d records has digest %x, want %x — not a commit prefix",
			k, got, want)
	}
	return nil
}

// DurableRecords returns how many full records fit in the first n bytes
// — the commits a crash preserving exactly n bytes must recover.
func (h *Harness) DurableRecords(n int) int {
	k := 0
	for k < h.Records && h.Bounds[k+1] <= n {
		k++
	}
	return k
}
