package kernel

import (
	"sort"

	"moas/internal/stats"
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

// Lifecycle computes duration statistics over activation spans as of
// observation day now.
func Lifecycle(spans []Span, now int) LifecycleStats {
	st := LifecycleStats{Spans: len(spans)}
	if len(spans) == 0 {
		return st
	}
	ls := make([]int, len(spans))
	sum := 0
	for i, s := range spans {
		if s.Open {
			st.Open++
		}
		l := s.Len(now)
		ls[i] = l
		sum += l
		if l > st.MaxDays {
			st.MaxDays = l
		}
	}
	sort.Ints(ls)
	st.MedianDays = stats.MedianIntsSorted(ls)
	st.MeanDays = float64(sum) / float64(len(ls))
	return st
}
