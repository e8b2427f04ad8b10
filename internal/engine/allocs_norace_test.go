//go:build !race

package engine

import "testing"

// morselAllocs is the average number of heap allocations one call of f
// makes. The race build relaxes it (allocs_race_test.go); this one does not.
func morselAllocs(runs int, f func()) float64 { return testing.AllocsPerRun(runs, f) }
