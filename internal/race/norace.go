//go:build !race

// Package race reports whether the binary was built with the race
// detector. The exact-zero allocation pins consult it: the detector
// instruments allocations, so under -race the pins still exercise the
// full path but skip the numeric check.
package race

// Enabled is true in a -race build.
const Enabled = false
