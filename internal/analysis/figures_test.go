package analysis

import (
	"math"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
)

func day(y int, m time.Month, d, total int) DayStats {
	return DayStats{Date: time.Date(y, m, d, 0, 0, 0, 0, time.UTC), Total: total}
}

func TestFig1SeriesAndSummary(t *testing.T) {
	days := []DayStats{
		day(1998, 1, 1, 700),
		day(1998, 4, 7, 11842),
		day(2001, 4, 6, 10226),
		day(2001, 7, 18, 1300),
	}
	reg := core.NewRegistry()
	reg.Record(0, bgp.MustParsePrefix("10.0.0.0/8"), []bgp.ASN{1, 2}, core.ClassDistinctPaths)

	series := Fig1Series(days)
	if len(series) != 4 || series[1].Count != 11842 {
		t.Fatalf("series = %v", series)
	}
	s := SummarizeFig1(days, reg)
	if s.PeakCount != 11842 || s.PeakDate.Month() != 4 || s.PeakDate.Year() != 1998 {
		t.Fatalf("peak = %d @ %s", s.PeakCount, s.PeakDate)
	}
	if s.SecondCount != 10226 || s.SecondDate.Year() != 2001 {
		t.Fatalf("second = %d @ %s", s.SecondCount, s.SecondDate)
	}
	if s.TotalConflicts != 1 || s.ObservedDays != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestFig2YearlyMedians(t *testing.T) {
	var days []DayStats
	// 1998: three days 680,683,690 → median 683; 1999: 800,821 → 810.5.
	days = append(days, day(1998, 1, 1, 680), day(1998, 1, 2, 683), day(1998, 1, 3, 690))
	days = append(days, day(1999, 1, 1, 800), day(1999, 1, 2, 821))
	// 1997: one day only — excluded by minDays=2.
	days = append(days, day(1997, 12, 31, 600))

	rows := Fig2YearlyMedians(days, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Year != 1998 || rows[0].Median != 683 || rows[0].GrowthPct != 0 {
		t.Fatalf("row0 = %+v", rows[0])
	}
	if rows[1].Year != 1999 || rows[1].Median != 810.5 {
		t.Fatalf("row1 = %+v", rows[1])
	}
	if math.Abs(rows[1].GrowthPct-18.67) > 0.1 {
		t.Fatalf("growth = %v, want ≈18.7%%", rows[1].GrowthPct)
	}
}

func regWithDurations(durations ...int) *core.Registry {
	reg := core.NewRegistry()
	for i, d := range durations {
		p := bgp.PrefixFromUint32(uint32(0x0A000000+i*256), 24)
		for day := 0; day < d; day++ {
			reg.Record(day, p, []bgp.ASN{1, 2}, core.ClassDistinctPaths)
		}
	}
	return reg
}

func TestFig3And4(t *testing.T) {
	reg := regWithDurations(1, 1, 5, 10, 20, 301)
	h := Fig3Histogram(reg)
	if h[1] != 2 || h[5] != 1 || h[301] != 1 {
		t.Fatalf("hist = %v", h)
	}
	rows := Fig4Expectations(reg)
	if len(rows) != len(Fig4Thresholds) {
		t.Fatalf("rows = %v", rows)
	}
	// >0: all six; >1: four; >9: three; >29: one... wait 20>29 false: {301}? 20 ≤ 29 so only 301 → n=1.
	if rows[0].N != 6 || rows[1].N != 4 || rows[2].N != 3 || rows[3].N != 1 || rows[4].N != 1 {
		t.Fatalf("Ns = %v", rows)
	}
	if math.Abs(rows[2].Expectation-(10+20+301)/3.0) > 1e-9 {
		t.Fatalf("E[>9] = %v", rows[2].Expectation)
	}
	sum := SummarizeDurations(reg, 300) // final day index for the 301-day conflict
	if sum.OneDayConflicts != 2 || sum.Over300Days != 1 || sum.MaxDuration != 301 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Ongoing != 1 {
		t.Fatalf("ongoing = %d", sum.Ongoing)
	}
}

func TestFig5PrefixLengths(t *testing.T) {
	mk := func(y int, dd, total, c24, c16 int) DayStats {
		ds := day(y, 6, dd, total)
		ds.ByLen[24] = c24
		ds.ByLen[16] = c16
		return ds
	}
	days := []DayStats{
		mk(1998, 1, 100, 60, 10),
		mk(1998, 2, 200, 120, 20), // median day of 1998 (middle of 3 sorted)
		mk(1998, 3, 300, 170, 30),
		mk(1999, 1, 400, 220, 40),
		mk(1999, 2, 500, 270, 50),
	}
	rows := Fig5PrefixLengths(days, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Year != 1998 || rows[0].ByLen[24] != 120 || rows[0].ByLen[16] != 20 {
		t.Fatalf("1998 row = %+v", rows[0])
	}
	if rows[1].Year != 1999 || rows[1].ByLen[24] != 270 {
		t.Fatalf("1999 row = %+v", rows[1])
	}
}

func TestFig6ClassSeriesAndTotals(t *testing.T) {
	mk := func(m time.Month, d int, dp, ot, sv int) DayStats {
		ds := day(2001, m, d, dp+ot+sv)
		ds.ByClass[core.ClassDistinctPaths] = dp
		ds.ByClass[core.ClassOrigTranAS] = ot
		ds.ByClass[core.ClassSplitView] = sv
		return ds
	}
	days := []DayStats{
		mk(time.May, 1, 100, 10, 5), // before window
		mk(time.May, 20, 2000, 300, 150),
		mk(time.June, 10, 2100, 310, 160),
		mk(time.September, 1, 10, 1, 1), // after window
	}
	from := time.Date(2001, time.May, 15, 0, 0, 0, 0, time.UTC)
	to := time.Date(2001, time.August, 15, 0, 0, 0, 0, time.UTC)
	pts := Fig6ClassSeries(days, from, to)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	totals := ClassTotals(pts)
	if totals[core.ClassDistinctPaths] != 4100 || totals[core.ClassOrigTranAS] != 610 || totals[core.ClassSplitView] != 310 {
		t.Fatalf("totals = %v", totals)
	}
	if totals[core.ClassDistinctPaths] <= totals[core.ClassOrigTranAS] {
		t.Fatal("DistinctPaths must dominate")
	}
}

func TestAttributeDay(t *testing.T) {
	d := day(1998, 4, 7, 11842)
	d.Involvement = []int{11357}
	d.SeqHits = []int{42}
	days := []DayStats{d}
	date := time.Date(1998, 4, 7, 0, 0, 0, 0, time.UTC)

	a, err := AttributeDay(days, date, 0, "AS8584")
	if err != nil {
		t.Fatal(err)
	}
	if a.Involved != 11357 || a.Total != 11842 {
		t.Fatalf("attribution = %+v", a)
	}
	want := "AS8584 involved in 11357 of 11842 conflicts on 1998-04-07"
	if a.String() != want {
		t.Fatalf("String = %q", a.String())
	}
	s, err := AttributeDaySeq(days, date, 0, "(3561 15412)")
	if err != nil || s.Involved != 42 {
		t.Fatalf("seq attribution = %+v, %v", s, err)
	}
	if _, err := AttributeDay(days, date.AddDate(0, 0, 1), 0, "x"); err == nil {
		t.Fatal("missing day accepted")
	}
	if _, err := AttributeDaySeq(days, date.AddDate(0, 0, 1), 0, "x"); err == nil {
		t.Fatal("missing day accepted (seq)")
	}
}

func TestVantageSubsets(t *testing.T) {
	routes := map[bgp.Prefix][]PeerRouteLite{
		// Conflict visible only with ≥2 peers; second origin at peer 5.
		bgp.MustParsePrefix("10.0.0.0/8"): {
			{PeerID: 0, Origin: 100, HasOrigin: true},
			{PeerID: 5, Origin: 200, HasOrigin: true},
		},
		// Conflict visible with ≥2 peers (origins at peers 0 and 1).
		bgp.MustParsePrefix("20.0.0.0/8"): {
			{PeerID: 0, Origin: 100, HasOrigin: true},
			{PeerID: 1, Origin: 300, HasOrigin: true},
		},
		// Never a conflict: single origin everywhere.
		bgp.MustParsePrefix("30.0.0.0/8"): {
			{PeerID: 0, Origin: 100, HasOrigin: true},
			{PeerID: 1, Origin: 100, HasOrigin: true},
		},
		// AS_SET routes don't count.
		bgp.MustParsePrefix("40.0.0.0/8"): {
			{PeerID: 0, Origin: 100, HasOrigin: true},
			{PeerID: 1, HasOrigin: false},
		},
	}
	out := VantageSubsets(routes, []int{1, 2, 6})
	if out[0].Conflicts != 0 {
		t.Fatalf("k=1 sees %d conflicts", out[0].Conflicts)
	}
	if out[1].Conflicts != 1 {
		t.Fatalf("k=2 sees %d conflicts, want 1", out[1].Conflicts)
	}
	if out[2].Conflicts != 2 {
		t.Fatalf("k=6 sees %d conflicts, want 2", out[2].Conflicts)
	}
}
