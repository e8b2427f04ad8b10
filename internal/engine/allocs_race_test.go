//go:build race

package engine

import "runtime"

// morselAllocs, under the race detector only, is the fewest heap
// allocations any one of `runs` calls of f made rather than
// testing.AllocsPerRun's mean: there sync.Pool drops a returned scratch now
// and then and the next morsel builds a new one, while an allocation the
// morsel loop itself makes still shows in every run.
func morselAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	return float64(least)
}
