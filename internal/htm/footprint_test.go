package htm_test

import (
	"fmt"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/rng"
)

// footprintModel is what a transaction's footprint should be, kept in
// maps: the lines it tracks as read, the lines it writes, and its
// buffered stores. The simulator reads the same sets off the directory.
type footprintModel struct {
	mode   htm.Mode
	read   map[memsim.Line]bool
	write  map[memsim.Line]bool
	buffer map[memsim.Addr]uint64
}

// charged is the TMCAM lines the model's footprint takes: |R∪W| for a
// regular transaction, |W| for a ROT (its reads are untracked).
func (f *footprintModel) charged() int {
	n := len(f.write)
	for l := range f.read {
		if !f.write[l] {
			n++
		}
	}
	return n
}

// fits reports whether touching line (a write if write is set) keeps
// the footprint within tmcam lines: only a line new to R∪W takes a
// TMCAM entry, and a ROT's read takes none.
func (f *footprintModel) fits(line memsim.Line, write bool, tmcam int) bool {
	if f.write[line] || f.read[line] || (!write && f.mode == htm.ModeROT) {
		return true
	}
	return f.charged()+1 <= tmcam
}

// TestFootprintMatchesModel drives seeded random sequences of reads and
// writes over a dozen lines through one thread's transactions, in HTM
// and ROT mode, and checks after every operation that the sets the
// directory holds (ReadSetLines, WriteSetLines, the core's TMCAM charge)
// equal a map model's, and that every read returns the model's value,
// own writes first. The sequences re-read, re-write, read then write and
// write then read one line, and end in a commit, an explicit abort or a
// capacity abort at a TMCAM smaller than the lines they draw from. After
// each end the directory must be quiescent and committed memory must
// equal the model's.
func TestFootprintMatchesModel(t *testing.T) {
	const (
		tmcam     = 8
		nLines    = 12
		sequences = 400
		maxOps    = 24
	)
	for _, mode := range []htm.Mode{htm.ModeHTM, htm.ModeROT} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMachine(t, 1, 1, tmcam)
			lines := allocLines(m, nLines)
			th := m.Thread(0)
			r := rng.New(0xf007 + uint64(mode))
			mem := map[memsim.Addr]uint64{} // committed values; absent reads 0
			ends := map[string]int{}
			for seq := 0; seq < sequences; seq++ {
				f := &footprintModel{
					mode:   mode,
					read:   map[memsim.Line]bool{},
					write:  map[memsim.Line]bool{},
					buffer: map[memsim.Addr]uint64{},
				}
				tx := th.Begin(mode)
				var touched []memsim.Addr
				end := "commit"
				for op := r.Intn(maxOps) + 1; op > 0 && end == "commit"; op-- {
					// Half the accesses go back to an address already
					// touched, so re-reads, re-writes and upgrades are common.
					a := lines[r.Intn(nLines)] + memsim.Addr(r.Intn(2))
					if len(touched) > 0 && r.Intn(2) == 0 {
						a = touched[r.Intn(len(touched))]
					}
					touched = append(touched, a)
					line := memsim.LineOf(a)
					write, access := r.Intn(2) == 0, "read"
					if write {
						access = "write"
					}
					v := r.Uint64()
					what := fmt.Sprintf("seq %d: %s line %d word %d", seq, access, line, a%memsim.WordsPerLine)

					var got uint64
					ab := tryTx(func() {
						if write {
							tx.Write(a, v)
						} else {
							got = tx.Read(a)
						}
					})
					if !f.fits(line, write, tmcam) {
						if ab == nil || ab.Code != htm.CodeCapacity {
							t.Fatalf("%s: abort %v past a %d-line TMCAM, want capacity", what, ab, tmcam)
						}
						end = "capacity"
						break
					}
					if ab != nil {
						t.Fatalf("%s: unexpected abort %v", what, ab)
					}
					if write {
						f.write[line] = true
						f.buffer[a] = v
					} else {
						want, ok := f.buffer[a]
						if !ok {
							want = mem[a]
						}
						if got != want {
							t.Fatalf("%s: read %d, model says %d", what, got, want)
						}
						if mode == htm.ModeHTM && !f.write[line] {
							f.read[line] = true
						}
					}
					if nr, nw, nc := tx.ReadSetLines(), tx.WriteSetLines(), m.CoreUsage(0); nr != len(f.read) || nw != len(f.write) || nc != f.charged() {
						t.Fatalf("%s: |R|=%d |W|=%d charged=%d, model says %d %d %d",
							what, nr, nw, nc, len(f.read), len(f.write), f.charged())
					}
				}
				if end == "commit" && r.Intn(4) == 0 {
					end = "explicit"
					if ab := tryTx(tx.AbortExplicit); ab == nil || ab.Code != htm.CodeExplicit {
						t.Fatalf("seq %d: AbortExplicit unwound with %v", seq, ab)
					}
				}
				if end == "commit" {
					tx.Commit()
					for a, v := range f.buffer {
						mem[a] = v
					}
				}
				ends[end]++
				if !m.DirectoryQuiescent() || m.CoreUsage(0) != 0 {
					t.Fatalf("seq %d (%s): directory not quiescent, core charge %d", seq, end, m.CoreUsage(0))
				}
				for _, base := range lines {
					for a := base; a < base+2; a++ {
						if got := th.Load(a); got != mem[a] {
							t.Fatalf("seq %d (%s): word %d holds %d, model says %d", seq, end, a, got, mem[a])
						}
					}
				}
			}
			for _, end := range []string{"commit", "explicit", "capacity"} {
				if ends[end] == 0 {
					t.Errorf("no sequence ended in %s (ends %v)", end, ends)
				}
			}
		})
	}
}
