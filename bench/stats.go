package bench

import (
	"math"
	"sort"
	"time"
)

// ms is d in milliseconds, the unit latencies are reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the q-quantile (0..1) of an ascending slice, linearly
// interpolated between the two nearest ranks. Empty input yields 0.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantileSorted(sorted(v), 0.5) }

// tailLadder is the set of tail percentiles a latency distribution may
// report, highest first, each with the fraction of samples beyond it
// written as one in `oneIn`.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {90, 10}}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, so the reported tail is never one
// outlier. It returns 0 when even p90 has fewer than ten samples above
// it (n < 100): such a sample reports its median and maximum only.
func tailPercentile(n int) float64 {
	for _, t := range tailLadder {
		if n >= 10*t.oneIn {
			return t.p
		}
	}
	return 0
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the benchmark contract gates on —
// with quartiles computed as Python's statistics.quantiles(v, n=4) does
// (the "exclusive" method). Two or three values have no quartiles; their
// whole range stands in, so that a metric taken three times still says
// how far its samples scatter. One value, or a zero median, yields 0:
// no spread can be stated.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	med := quantileSorted(s, 0.5)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	m := len(s) + 1
	quart := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quart(3) - quart(1)) / med
}

// timedSample is one latency observation stamped with when, relative to
// the start of its phase, the operation was due.
type timedSample struct {
	at time.Duration
	ms float64
}

// windowMedians groups samples into consecutive windows by due time and
// returns each non-empty window's median, in window order.
func windowMedians(samples []timedSample, window time.Duration) []float64 {
	byWin := make(map[int][]float64)
	last := -1
	for _, s := range samples {
		w := int(s.at / window)
		byWin[w] = append(byWin[w], s.ms)
		if w > last {
			last = w
		}
	}
	var out []float64
	for w := 0; w <= last; w++ {
		if v := byWin[w]; len(v) > 0 {
			out = append(out, median(v))
		}
	}
	return out
}

// medianOfWindowMedians is the median of the per-window medians: one
// stalled second moves it by at most one window's weight, where a plain
// median over all samples would be skewed by the busiest window.
func medianOfWindowMedians(samples []timedSample, window time.Duration) float64 {
	return median(windowMedians(samples, window))
}
