package memsim

import (
	"syscall"
	"unsafe"
)

// hugePageBytes is the transparent-huge-page size on x86-64, and on
// arm64 with 4 KB base pages.
const hugePageBytes = 2 << 20

// hugeInterior returns, as a byte offset and length, the largest
// hugePageBytes-aligned range inside the length bytes at address base.
// n is 0 when they hold no whole huge page.
func hugeInterior(base, length uintptr) (off, n uintptr) {
	start := (base + hugePageBytes - 1) &^ (hugePageBytes - 1)
	end := (base + length) &^ (hugePageBytes - 1)
	if end <= start {
		return 0, 0
	}
	return start - base, end - start
}

// adviseHuge asks the kernel to back the aligned interior of words with
// huge pages; call it before first touch. NewHeap ignores the error: a
// refusal (THP "never", a kernel built without it) leaves the slice on
// base pages, which is correct and merely slower.
func adviseHuge(words []uint64) error {
	off, n := hugeInterior(uintptr(unsafe.Pointer(unsafe.SliceData(words))), uintptr(len(words))*WordBytes)
	if n == 0 {
		return nil
	}
	return syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&words[off/WordBytes])), n), syscall.MADV_HUGEPAGE)
}
