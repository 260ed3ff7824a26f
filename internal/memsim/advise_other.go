//go:build !linux

package memsim

// adviseHuge does nothing where there is no MADV_HUGEPAGE.
func adviseHuge([]uint64) error { return nil }
