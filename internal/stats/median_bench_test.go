package stats

import (
	"sort"
	"testing"
)

// benchSamples builds a deterministic pseudo-random sample the size of the
// paper's observed-day series (1279 days).
func benchSamples(n int) []int {
	xs := make([]int, n)
	state := uint32(0x9e3779b9)
	for i := range xs {
		state = state*1664525 + 1013904223
		xs[i] = int(state % 2000)
	}
	return xs
}

// BenchmarkMedianIntsSorted is the sort-once-query-many path the analysis
// loops use: the sort is hoisted out of the hot loop.
func BenchmarkMedianIntsSorted(b *testing.B) {
	xs := benchSamples(1279)
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MedianIntsSorted(sorted)
	}
}
