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

// add folds in n activations that began on day start and, unless open,
// ended on day end, measured as of observation day now (the last day
// closed). An ended activation counts [start, end), and at least 1 day: a
// conflict that started and ended within one day lasted 1, matching the
// registry's "lasting less than one day" convention. An open one counts
// [start, now], and 0 days while no day close has seen it — a live feed
// before its first UTC midnight (now = -1), or a replay whose calendar
// skips days past now.
func (d *Durations) add(start, end, now, n int, open bool) {
	days := max(end-start, 1)
	if open {
		days = max(now-start+1, 0)
		d.open += n
	}
	if d.byLen == nil {
		d.byLen = make(map[int]int)
	}
	d.byLen[days] += n
}

// AddDurations folds every activation of k — the counted closed ones and
// the open ones of the active set — into d as of day now.
func (k *Kernel) AddDurations(d *Durations, now int) {
	for sp, n := range k.closed {
		d.add(sp.Start, sp.End, now, n, false)
	}
	for _, id := range k.active {
		d.add(k.extOf(id).since, 0, now, 1, true)
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
	st.MaxDays = lens[len(lens)-1]
	return st
}
