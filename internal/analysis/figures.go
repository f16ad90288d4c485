// Package analysis turns a detection run into the paper's evaluation
// exhibits: the daily conflict series (Fig. 1), yearly medians (Fig. 2),
// the duration distribution and conditional expectations (Figs. 3-4), the
// prefix-length distribution (Fig. 5), the classification series (Fig. 6),
// spike attribution (§VI-E) and the vantage-point sensitivity observation
// of §III.
package analysis

import (
	"fmt"
	"sort"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/stats"
)

// MaxPrefixBits sizes per-length accumulators (IPv4 /0../32).
const MaxPrefixBits = 33

// DayStats is one observed day's aggregate detection output — what a
// detection run (internal/driver) produces per day and every figure
// function below consumes.
type DayStats struct {
	Day  int // calendar-day index
	Date time.Time

	// Total is the number of MOAS conflicts observed (Fig. 1).
	Total int

	// ByClass counts conflicts per classification (Fig. 6).
	ByClass [core.NumClasses]int

	// ByLen counts conflicts per prefix length (Fig. 5).
	ByLen [MaxPrefixBits]int

	// Involvement[i] counts conflicts whose origin set includes the run's
	// i-th watched AS.
	Involvement []int

	// SeqHits[i] counts conflicts with the run's i-th watched AS pair
	// consecutive in some observed AS path.
	SeqHits []int
}

// Fig1Point is one day of the Fig. 1 time series.
type Fig1Point struct {
	Date  time.Time
	Count int
}

// Fig1Series extracts the daily MOAS conflict counts.
func Fig1Series(days []DayStats) []Fig1Point {
	out := make([]Fig1Point, len(days))
	for i, d := range days {
		out[i] = Fig1Point{Date: d.Date, Count: d.Total}
	}
	return out
}

// Fig1Summary carries the headline aggregates the paper quotes with
// Fig. 1: total conflicts over the study and the two spike days.
type Fig1Summary struct {
	TotalConflicts int
	ObservedDays   int
	PeakCount      int
	PeakDate       time.Time
	SecondCount    int
	SecondDate     time.Time
}

// SummarizeFig1 computes the headline aggregates.
func SummarizeFig1(days []DayStats, reg *core.Registry) Fig1Summary {
	s := Fig1Summary{TotalConflicts: reg.Len(), ObservedDays: len(days)}
	for _, d := range days {
		if d.Total > s.PeakCount {
			s.SecondCount, s.SecondDate = s.PeakCount, s.PeakDate
			s.PeakCount, s.PeakDate = d.Total, d.Date
		} else if d.Total > s.SecondCount {
			s.SecondCount, s.SecondDate = d.Total, d.Date
		}
	}
	return s
}

// Fig2Row is one year of the Fig. 2 median table.
type Fig2Row struct {
	Year      int
	Median    float64
	GrowthPct float64 // vs the previous listed year; 0 for the first row
}

// Fig2YearlyMedians computes per-calendar-year medians of the daily count
// and year-over-year growth, as in the paper's Fig. 2. Years with fewer
// than minDays observations are skipped (the paper's table starts at 1998
// although data begins 1997-11-08).
func Fig2YearlyMedians(days []DayStats, minDays int) []Fig2Row {
	byYear := map[int][]int{}
	for _, d := range days {
		byYear[d.Date.Year()] = append(byYear[d.Date.Year()], d.Total)
	}
	var years []int
	for y, counts := range byYear {
		if len(counts) >= minDays {
			years = append(years, y)
		}
	}
	sort.Ints(years)
	var out []Fig2Row
	for i, y := range years {
		counts := byYear[y] // locally built, safe to sort in place
		sort.Ints(counts)
		row := Fig2Row{Year: y, Median: stats.MedianIntsSorted(counts)}
		if i > 0 {
			row.GrowthPct = stats.GrowthPct(out[i-1].Median, row.Median)
		}
		out = append(out, row)
	}
	return out
}

// Durations extracts every conflict's duration in observed days.
func Durations(reg *core.Registry) []int {
	cs := reg.Conflicts()
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.Duration()
	}
	return out
}

// Fig3Histogram returns duration → number of conflicts (the log-scale
// scatter of Fig. 3).
func Fig3Histogram(reg *core.Registry) map[int]int {
	return stats.Hist(Durations(reg))
}

// Fig4Row is one row of the Fig. 4 expectation table.
type Fig4Row struct {
	ThresholdDays int // "longer than N days"
	N             int
	Expectation   float64
}

// Fig4Thresholds are the paper's data-set filters.
var Fig4Thresholds = []int{0, 1, 9, 29, 89}

// Fig4Expectations computes E[duration | duration > t] for the paper's
// thresholds.
func Fig4Expectations(reg *core.Registry) []Fig4Row {
	ds := Durations(reg)
	out := make([]Fig4Row, 0, len(Fig4Thresholds))
	for _, t := range Fig4Thresholds {
		mean, n := stats.CondExp(ds, t)
		out = append(out, Fig4Row{ThresholdDays: t, N: n, Expectation: mean})
	}
	return out
}

// DurationSummary carries the remaining §IV-B headline numbers.
type DurationSummary struct {
	OneDayConflicts int // observed exactly once
	Over300Days     int
	MaxDuration     int
	Ongoing         int // still active on the final observed day
}

// SummarizeDurations computes the §IV-B aggregates.
func SummarizeDurations(reg *core.Registry, finalDay int) DurationSummary {
	ds := Durations(reg)
	s := DurationSummary{
		Over300Days: stats.CountOver(ds, 300),
		MaxDuration: stats.MaxInt(ds),
		Ongoing:     reg.OngoingAt(finalDay),
	}
	for _, d := range ds {
		if d == 1 {
			s.OneDayConflicts++
		}
	}
	return s
}

// Fig5Row is one year's conflict counts by prefix length, taken from the
// year's median day (the day whose total is the yearly median), matching
// the paper's per-year bars whose /24 column carries most of the mass.
type Fig5Row struct {
	Year  int
	ByLen [MaxPrefixBits]int
}

// Fig5PrefixLengths selects each year's median day and reports its
// per-length conflict counts.
func Fig5PrefixLengths(days []DayStats, minDays int) []Fig5Row {
	byYear := map[int][]DayStats{}
	for _, d := range days {
		byYear[d.Date.Year()] = append(byYear[d.Date.Year()], d)
	}
	var years []int
	for y, ds := range byYear {
		if len(ds) >= minDays {
			years = append(years, y)
		}
	}
	sort.Ints(years)
	var out []Fig5Row
	for _, y := range years {
		ds := byYear[y]
		sort.Slice(ds, func(i, j int) bool { return ds[i].Total < ds[j].Total })
		med := ds[len(ds)/2]
		out = append(out, Fig5Row{Year: y, ByLen: med.ByLen})
	}
	return out
}

// Fig6Point is one day of the classification series.
type Fig6Point struct {
	Date    time.Time
	ByClass [core.NumClasses]int
}

// Fig6ClassSeries restricts the run to [from, to] (inclusive) and returns
// the per-day class counts — the paper's 05/15-08/15 window.
func Fig6ClassSeries(days []DayStats, from, to time.Time) []Fig6Point {
	var out []Fig6Point
	for _, d := range days {
		if d.Date.Before(from) || d.Date.After(to) {
			continue
		}
		out = append(out, Fig6Point{Date: d.Date, ByClass: d.ByClass})
	}
	return out
}

// Attribution reports a watched AS's share of one day's conflicts — the
// §VI-E statements of the form "AS 8584 was involved in 11357 of 11842
// conflicts that occurred during that day".
type Attribution struct {
	Date     time.Time
	Total    int
	Involved int
	Label    string
}

// AttributeDay finds the day's stats and formats the attribution for
// watch index w.
func AttributeDay(days []DayStats, date time.Time, w int, label string) (Attribution, error) {
	for _, d := range days {
		if d.Date.Equal(date) {
			return Attribution{Date: date, Total: d.Total, Involved: d.Involvement[w], Label: label}, nil
		}
	}
	return Attribution{}, fmt.Errorf("analysis: %s not among observed days", date.Format("2006-01-02"))
}

// AttributeDaySeq is AttributeDay for a watched AS-path sequence.
func AttributeDaySeq(days []DayStats, date time.Time, w int, label string) (Attribution, error) {
	for _, d := range days {
		if d.Date.Equal(date) {
			return Attribution{Date: date, Total: d.Total, Involved: d.SeqHits[w], Label: label}, nil
		}
	}
	return Attribution{}, fmt.Errorf("analysis: %s not among observed days", date.Format("2006-01-02"))
}

// String formats the attribution in the paper's phrasing.
func (a Attribution) String() string {
	return fmt.Sprintf("%s involved in %d of %d conflicts on %s",
		a.Label, a.Involved, a.Total, a.Date.Format("2006-01-02"))
}

// ClassTotals sums class counts across a window — the dominance check for
// Fig. 6 (DistinctPaths must dominate).
func ClassTotals(points []Fig6Point) [core.NumClasses]int {
	var out [core.NumClasses]int
	for _, p := range points {
		for c := range p.ByClass {
			out[c] += p.ByClass[c]
		}
	}
	return out
}

// VantageSensitivity reproduces the §III observation that fewer vantage
// points see fewer conflicts (the paper: Route Views saw 1364 while three
// individual ISPs saw 30, 12 and 228). For each peer-count k it counts the
// conflicts visible using only the first k collector peers on one day's
// routes.
type VantageSensitivity struct {
	Peers     int
	Conflicts int
}

// VantageSubsets evaluates conflict visibility for each peer count in ks,
// given one day's full per-prefix route sets.
func VantageSubsets(routesByPrefix map[bgp.Prefix][]PeerRouteLite, ks []int) []VantageSensitivity {
	out := make([]VantageSensitivity, 0, len(ks))
	for _, k := range ks {
		n := 0
		for _, routes := range routesByPrefix {
			seen := map[bgp.ASN]bool{}
			for _, r := range routes {
				if int(r.PeerID) < k && r.HasOrigin {
					seen[r.Origin] = true
				}
			}
			if len(seen) >= 2 {
				n++
			}
		}
		out = append(out, VantageSensitivity{Peers: k, Conflicts: n})
	}
	return out
}

// PeerRouteLite is the projection of a peer route the vantage-sensitivity
// experiment needs (kept minimal so callers can build it from any source).
type PeerRouteLite struct {
	PeerID    uint16
	Origin    bgp.ASN
	HasOrigin bool
}
