// Package stats provides the small statistical toolkit the analysis layer
// uses: medians, conditional expectations and histograms over integer
// samples. Implementations are deliberately simple and allocation-light.
package stats

import "sort"

// MedianIntsSorted returns the median of xs, which must be in ascending
// order (mean of the middle pair for even n, matching the paper's
// fractional yearly medians such as 810.5). It returns 0 for an empty
// slice. It does no copy and no sort — the form the analysis loops use
// for samples they sort once and query repeatedly.
func MedianIntsSorted(xs []int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(xs[n/2])
	}
	return (float64(xs[n/2-1]) + float64(xs[n/2])) / 2
}

// CondExp returns the expectation of the samples strictly greater than
// threshold, and how many qualified — the paper's Figure 4 measure
// ("expectation of the duration for conflicts longer than N days").
func CondExp(xs []int, threshold int) (mean float64, n int) {
	var sum float64
	for _, x := range xs {
		if x > threshold {
			sum += float64(x)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// CountOver returns how many samples exceed threshold.
func CountOver(xs []int, threshold int) int {
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return n
}

// MaxInt returns the maximum (0 for empty).
func MaxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Hist builds a histogram of xs: value → count.
func Hist(xs []int) map[int]int {
	h := make(map[int]int)
	for _, x := range xs {
		h[x]++
	}
	return h
}

// HistBuckets rebins a histogram into fixed-width buckets of the given
// size, returning ascending (bucketStart, count) pairs — used to render
// the Figure 3 scatter at terminal resolution.
func HistBuckets(h map[int]int, width int) (starts []int, counts []int) {
	if width < 1 {
		width = 1
	}
	agg := map[int]int{}
	for v, c := range h {
		agg[(v/width)*width] += c
	}
	for s := range agg {
		starts = append(starts, s)
	}
	sort.Ints(starts)
	counts = make([]int, len(starts))
	for i, s := range starts {
		counts[i] = agg[s]
	}
	return starts, counts
}

// GrowthPct returns the percentage growth from a to b (0 when a is 0).
func GrowthPct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
