package memsim

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The advised range must lie inside the slice and be huge-page aligned
// at both ends, whatever the allocator's base address.
func TestHugeInterior(t *testing.T) {
	const hp = hugePageBytes
	cases := []struct {
		name         string
		base, length uintptr
		off, n       uintptr
	}{
		{"empty", 4 * hp, 0, 0, 0},
		{"aligned, below one", 4 * hp, hp - 8, 0, 0},
		{"aligned, exactly one", 4 * hp, hp, 0, hp},
		{"aligned, just above one", 4 * hp, hp + 8, 0, hp},
		{"aligned, just below two", 4 * hp, 2*hp - 8, 0, hp},
		{"aligned, exactly two", 4 * hp, 2 * hp, 0, 2 * hp},
		{"aligned, just above two", 4 * hp, 2*hp + 8, 0, 2 * hp},
		{"unaligned, below one", 4*hp + 8192, hp - 8, 0, 0},
		{"unaligned, exactly one", 4*hp + 8192, hp, 0, 0},
		{"unaligned, just above one", 4*hp + 8192, hp + 8, 0, 0},
		{"unaligned, one fits after the round-up", 4*hp + 8192, 2*hp - 8192, hp - 8192, hp},
		{"unaligned, exactly two", 4*hp + 8192, 2 * hp, hp - 8192, hp},
		{"unaligned, just above two", 4*hp + 8192, 2*hp + 8, hp - 8192, hp},
		{"unaligned, two fit", 4*hp + 8192, 3*hp - 8192, hp - 8192, 2 * hp},
		{"last byte before a boundary", 5*hp - 8, 8 + 3*hp, 8, 3 * hp},
		{"kv-update heap (1.7 MB)", 0xc000400000, 1700 << 10, 0, 0},
		{"hashmap-large heap (26 MB at an 8 KB-aligned base)", 0xc000802000, 26 << 20, hp - 0x2000, 12 * hp},
	}
	for _, c := range cases {
		off, n := hugeInterior(c.base, c.length)
		if off != c.off || n != c.n {
			t.Errorf("%s: hugeInterior(%#x, %d) = (%d, %d), want (%d, %d)", c.name, c.base, c.length, off, n, c.off, c.n)
		}
		if n == 0 {
			continue
		}
		if (c.base+off)%hp != 0 || n%hp != 0 {
			t.Errorf("%s: range [%#x, +%d) is not huge-page aligned at both ends", c.name, c.base+off, n)
		}
		if off+n > c.length {
			t.Errorf("%s: range [%d, %d) leaves the %d-byte region", c.name, off, off+n, c.length)
		}
	}
}

// thpMode is the bracketed word of the kernel's THP switch, "" if the
// file is missing (results.HostTHP, which this package cannot import).
func thpMode() string {
	b, _ := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	_, after, _ := strings.Cut(string(b), "[")
	mode, _, _ := strings.Cut(after, "]")
	return mode
}

// anonHugeKB is this process's AnonHugePages reading.
func anonHugeKB(t *testing.T) int {
	b, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("no smaps_rollup: %v", err)
	}
	m := regexp.MustCompile(`AnonHugePages:\s+(\d+) kB`).FindSubmatch(b)
	if m == nil {
		t.Skipf("no AnonHugePages line in smaps_rollup:\n%s", bytes.TrimSpace(b))
	}
	kb, _ := strconv.Atoi(string(m[1]))
	return kb
}

// With THP on, a touched 16 MB heap is backed by huge pages. Whether the
// kernel grants them is the host's business (fragmentation, a defrag
// policy that will not compact on fault), so a zero reading skips; what
// fails is madvise refusing a range hugeInterior computed.
func TestNewHeapIsHugePageBacked(t *testing.T) {
	mode := thpMode()
	if mode != "always" && mode != "madvise" {
		t.Skipf("transparent huge pages are %q on this host", mode)
	}
	before := anonHugeKB(t)
	const words = 16 << 20 / WordBytes
	h := NewHeap(words)
	if err := adviseHuge(h.words); err != nil {
		t.Fatalf("madvise(MADV_HUGEPAGE) on the heap's aligned interior: %v", err)
	}
	for a := Addr(0); a < words; a += 4096 / WordBytes {
		h.Store(a, 1)
	}
	after := anonHugeKB(t)
	if after <= before {
		t.Skipf("THP mode %q, but the kernel granted no huge page: AnonHugePages %d kB before, %d kB after touching 16 MB", mode, before, after)
	}
	t.Logf("THP mode %q: AnonHugePages %d kB -> %d kB after touching a 16 MB heap", mode, before, after)
}
