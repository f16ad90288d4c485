package kernel

import (
	"maps"
	"slices"
)

// LifecycleStats summarizes event-derived activation durations — the
// streaming engine's analogue of the registry's Figure 3/4 inputs, computed
// from conflict-start/conflict-end events instead of daily table scans.
// Unlike registry durations it measures contiguous activations: a conflict
// that recurs after a break contributes several spans. Marshalled, it is
// the "lifecycle" object of the per-scenario /stats document.
type LifecycleStats struct {
	Spans      int     `json:"spans"`
	Open       int     `json:"open"` // activations still ongoing
	MeanDays   float64 `json:"mean_days"`
	MedianDays float64 `json:"median_days"`
	MaxDays    int     `json:"max_days"`
}

// Durations folds activation spans into LifecycleStats as a count per
// distinct length — what the statistics need and, lengths being days, a
// handful of entries however many activations there were. The zero value
// is empty; kernels add theirs with AddDurations.
type Durations struct {
	byLen map[int]int
	open  int
}

// add folds in n spans equal to s, measured as of observation day now.
func (d *Durations) add(s Span, now, n int) {
	if d.byLen == nil {
		d.byLen = make(map[int]int)
	}
	d.byLen[s.Len(now)] += n
	if s.Open {
		d.open += n
	}
}

// AddDurations folds every activation span of k — the counted closed
// ones and the open ones of the active set — into d as of day now.
func (k *Kernel) AddDurations(d *Durations, now int) {
	for sp, n := range k.closed {
		d.add(Span{Start: sp.Start, End: sp.End}, now, n)
	}
	for _, id := range k.active {
		d.add(Span{Start: k.extOf(id).since, Open: true}, now, 1)
	}
}

// Stats computes the duration statistics of the spans folded in.
func (d *Durations) Stats() LifecycleStats {
	st := LifecycleStats{Open: d.open}
	lens := slices.Sorted(maps.Keys(d.byLen))
	sum := 0
	for _, l := range lens {
		st.Spans += d.byLen[l]
		sum += l * d.byLen[l]
	}
	if st.Spans == 0 {
		return st
	}
	// The median is the mean of the two middle lengths in ascending
	// order — one and the same when the count is odd.
	lo, hi, seen := (st.Spans-1)/2, st.Spans/2, 0
	for _, l := range lens {
		next := seen + d.byLen[l]
		if seen <= lo && lo < next {
			st.MedianDays += float64(l)
		}
		if seen <= hi && hi < next {
			st.MedianDays += float64(l)
		}
		seen = next
	}
	st.MedianDays /= 2
	st.MeanDays = float64(sum) / float64(st.Spans)
	st.MaxDays = max(lens[len(lens)-1], 0)
	return st
}
