// Benchmark harness: one benchmark per exhibit of the paper's evaluation
// (Figures 1-6, including the two tables rendered as figures), plus the
// §III vantage-sensitivity observation, the §VI-E spike attributions, and
// the related-work daily count. Each benchmark regenerates its exhibit
// from a shared full-scale (1279-day) run and reports the exhibit's
// headline values as custom metrics, so `go test -bench` output doubles as
// the paper-vs-measured record (see EXPERIMENTS.md).
package moas

import (
	"sync"
	"testing"
	"time"

	"moas/internal/analysis"
	"moas/internal/core"
	"moas/internal/driver"
	"moas/internal/rib"
	"moas/internal/scenario"
)

var (
	fullOnce sync.Once
	fullRep  *Report
	fullErr  error
)

// fullRun executes the paper-scale study once and shares it across
// benchmarks; BenchmarkFullPipeline measures the run itself.
func fullRun(b *testing.B) *Report {
	b.Helper()
	fullOnce.Do(func() {
		rep, err := NewStudy(FullScale()).Run()
		fullRep, fullErr = rep, err
	})
	if fullErr != nil {
		b.Fatal(fullErr)
	}
	return fullRep
}

// BenchmarkFullPipeline1279Days measures the complete reproduction: build
// the calibrated scenario, drive 1279 observed days through detection, and
// populate the registry — the substrate behind every figure.
func BenchmarkFullPipeline1279Days(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := NewStudy(FullScale()).Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Registry().Len() == 0 {
			b.Fatal("empty registry")
		}
	}
}

// BenchmarkFig1DailyConflictSeries regenerates the daily conflict-count
// series and its headline aggregates (total conflicts, the 1998-04-07 and
// 2001-04-06 spikes).
func BenchmarkFig1DailyConflictSeries(b *testing.B) {
	rep := fullRun(b)
	var s Fig1Summary
	for i := 0; i < b.N; i++ {
		pts := rep.Fig1()
		if len(pts) != 1279 {
			b.Fatalf("series has %d days", len(pts))
		}
		s = rep.Fig1Summary()
	}
	b.ReportMetric(float64(s.TotalConflicts), "total_conflicts(paper=38225)")
	b.ReportMetric(float64(s.PeakCount), "peak_day(paper=11842)")
	b.ReportMetric(float64(s.SecondCount), "second_peak(paper=10226)")
}

// BenchmarkFig2YearlyMedians regenerates the yearly-median table
// (683 / 810.5 / 951 / 1294 in the paper).
func BenchmarkFig2YearlyMedians(b *testing.B) {
	rep := fullRun(b)
	var rows []Fig2Row
	for i := 0; i < b.N; i++ {
		rows = rep.Fig2()
		if len(rows) != 4 {
			b.Fatalf("rows = %d, want 1998-2001", len(rows))
		}
	}
	paper := map[int]string{1998: "683", 1999: "810.5", 2000: "951", 2001: "1294"}
	for _, r := range rows {
		b.ReportMetric(r.Median, "median_"+itoa(r.Year)+"(paper="+paper[r.Year]+")")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig3DurationDistribution regenerates the duration histogram
// (13730 one-day conflicts in the paper; heavy tail to 1246 days).
func BenchmarkFig3DurationDistribution(b *testing.B) {
	rep := fullRun(b)
	var h map[int]int
	for i := 0; i < b.N; i++ {
		h = rep.Fig3()
		if len(h) == 0 {
			b.Fatal("empty histogram")
		}
	}
	ds := rep.DurationSummary()
	b.ReportMetric(float64(h[1]), "one_day_conflicts(paper=13730)")
	b.ReportMetric(float64(ds.MaxDuration), "max_duration_days(paper=1246)")
}

// BenchmarkFig4DurationExpectation regenerates the conditional-expectation
// table (30.9 / 47.7 / 107.5 / 175.3 / 281.8 days in the paper) and the
// >300-day and ongoing counts.
func BenchmarkFig4DurationExpectation(b *testing.B) {
	rep := fullRun(b)
	var rows []Fig4Row
	for i := 0; i < b.N; i++ {
		rows = rep.Fig4()
		if len(rows) != 5 {
			b.Fatal("want 5 threshold rows")
		}
	}
	paper := []float64{30.9, 47.7, 107.5, 175.3, 281.8}
	for i, r := range rows {
		b.ReportMetric(r.Expectation, "E_dur_gt_"+itoa(r.ThresholdDays)+"d(paper="+fmtF(paper[i])+")")
	}
	ds := rep.DurationSummary()
	b.ReportMetric(float64(ds.Over300Days), "over_300d(paper=1002)")
	b.ReportMetric(float64(ds.Ongoing), "ongoing(paper=1326)")
}

func fmtF(f float64) string {
	whole := int(f)
	frac := int(f*10+0.5) - whole*10
	return itoa(whole) + "." + itoa(frac)
}

// BenchmarkFig5PrefixLengthDistribution regenerates the per-year
// prefix-length bars; /24 must dominate, as in the paper.
func BenchmarkFig5PrefixLengthDistribution(b *testing.B) {
	rep := fullRun(b)
	var rows []Fig5Row
	for i := 0; i < b.N; i++ {
		rows = rep.Fig5()
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	last := rows[len(rows)-1]
	total, max24 := 0, 0
	for bits, n := range last.ByLen {
		total += n
		if bits == 24 {
			max24 = n
		}
	}
	for bits, n := range last.ByLen {
		if n > max24 {
			b.Fatalf("/%d (%d) exceeds /24 (%d): /24 must dominate", bits, n, max24)
		}
	}
	b.ReportMetric(float64(max24), "conflicts_at_slash24_2001")
	b.ReportMetric(float64(max24)/float64(total)*100, "slash24_share_pct")
}

// BenchmarkFig6Classification regenerates the class series over the
// paper's 2001-05-15..08-15 window; DistinctPaths must dominate.
func BenchmarkFig6Classification(b *testing.B) {
	rep := fullRun(b)
	var totals [core.NumClasses]int
	for i := 0; i < b.N; i++ {
		from, to := rep.Fig6Window()
		pts := rep.Fig6(from, to)
		if len(pts) == 0 {
			b.Fatal("empty class series")
		}
		totals = analysis.ClassTotals(pts)
	}
	if totals[ClassDistinctPaths] <= totals[ClassOrigTranAS] ||
		totals[ClassDistinctPaths] <= totals[ClassSplitView] {
		b.Fatalf("DistinctPaths does not dominate: %v", totals)
	}
	sum := totals[ClassOrigTranAS] + totals[ClassSplitView] + totals[ClassDistinctPaths] + totals[ClassRelated]
	b.ReportMetric(float64(totals[ClassDistinctPaths])/float64(sum)*100, "distinct_paths_pct")
	b.ReportMetric(float64(totals[ClassOrigTranAS])/float64(sum)*100, "orig_tran_pct")
	b.ReportMetric(float64(totals[ClassSplitView])/float64(sum)*100, "split_view_pct")
}

// BenchmarkSpikeAttribution re-derives the §VI-E incident attributions
// ("AS 8584 involved in 11357 of 11842"; "(3561 15412) in 5532 of 6627").
func BenchmarkSpikeAttribution(b *testing.B) {
	rep := fullRun(b)
	var a1, a2 Attribution
	for i := 0; i < b.N; i++ {
		var err error
		a1, err = rep.AttributeDay(Date(1998, time.April, 7), 0)
		if err != nil {
			b.Fatal(err)
		}
		a2, err = rep.AttributeDaySeq(Date(2001, time.April, 10), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a1.Involved), "as8584_involved(paper=11357)")
	b.ReportMetric(float64(a1.Total), "conflicts_19980407(paper=11842)")
	b.ReportMetric(float64(a2.Involved), "seq3561_15412(paper=5532)")
	b.ReportMetric(float64(a2.Total), "conflicts_20010410(paper=6627)")
}

// BenchmarkHustonDailyCount measures the related-work operation (Geoff
// Huston's BGP table statistics page): the basic MOAS count of one daily
// table, from a complete multi-peer snapshot.
func BenchmarkHustonDailyCount(b *testing.B) {
	spec := scenario.TestSpec()
	sc, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	day := sc.ObservedDays[0]
	view := sc.TableViewAt(day)
	b.ResetTimer()
	b.ReportAllocs()
	count := 0
	for i := 0; i < b.N; i++ {
		det := core.NewDetector()
		obs := det.ObserveView(day, view)
		count = obs.Count()
	}
	b.ReportMetric(float64(count), "daily_moas_count")
	b.ReportMetric(float64(view.Len()), "table_prefixes")
}

// BenchmarkVantageSensitivity reproduces the §III observation that fewer
// vantage points see fewer conflicts (Route Views saw 1364 while single
// ISPs saw 30/12/228): conflicts visible from k of the collector's peers
// on one full-scale day.
func BenchmarkVantageSensitivity(b *testing.B) {
	rep := fullRun(b)
	sc := rep.Scenario()
	day := sc.ObservedDays[len(sc.ObservedDays)/2]

	// Build the per-prefix peer-origin projection once.
	routesByPrefix := map[Prefix][]analysis.PeerRouteLite{}
	for _, id := range sc.ActiveEpisodes(day) {
		for _, pr := range sc.EpisodeRoutes(id) {
			o, ok := pr.Route.Origin()
			routesByPrefix[pr.Route.Prefix] = append(routesByPrefix[pr.Route.Prefix],
				analysis.PeerRouteLite{PeerID: pr.PeerID, Origin: o, HasOrigin: ok})
		}
	}
	ks := []int{1, 2, 3, 5, 10, 20, 30}
	var out []analysis.VantageSensitivity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = analysis.VantageSubsets(routesByPrefix, ks)
	}
	for _, v := range out {
		b.ReportMetric(float64(v.Conflicts), "conflicts_with_"+itoa(v.Peers)+"_peers")
	}
	// Monotone: more peers can only reveal more conflicts.
	for i := 1; i < len(out); i++ {
		if out[i].Conflicts < out[i-1].Conflicts {
			b.Fatalf("visibility not monotone: %+v", out)
		}
	}
}

// BenchmarkIncrementalVsFullScanDay contrasts the incremental driver's
// per-day cost against the literal full-table scan on the same small
// scenario — the ablation behind the fast path's existence.
func BenchmarkIncrementalVsFullScanDay(b *testing.B) {
	spec := scenario.TestSpec()
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc, err := scenario.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := driver.RunScenario(sc, driver.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc, err := scenario.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := driver.RunFullScanScenario(sc, driver.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValidityHeuristicAblation evaluates the §VII future-work
// predictors (is a conflict a fault/hijack?) against ground truth across
// duration thresholds, with and without the mass-origination signal — the
// design-choice ablation DESIGN.md calls out.
func BenchmarkValidityHeuristicAblation(b *testing.B) {
	rep := fullRun(b)
	var evals []ValidityEval
	for i := 0; i < b.N; i++ {
		evals = rep.ValiditySweep([]int{1, 3, 9, 29}, 1000)
		if len(evals) != 8 {
			b.Fatalf("sweep rows = %d", len(evals))
		}
	}
	for _, e := range evals {
		b.ReportMetric(e.F1()*100, "f1_pct_"+e.Name)
	}
	// The combined heuristic at 9 days must beat duration alone (the
	// storm members dominate the invalid class and most are one-day, but
	// the 2001 storm's 5-day members reward the mass signal).
	var d9, c9 ValidityEval
	for _, e := range evals {
		switch e.Name {
		case "duration<=9d":
			d9 = e
		case "duration<=9d+mass":
			c9 = e
		}
	}
	if c9.Recall() < d9.Recall() {
		b.Fatalf("mass signal reduced recall: %v vs %v", c9, d9)
	}
}

// BenchmarkDetectorDay measures raw detection throughput over one
// materialized day (prefixes/op reported as a metric).
func BenchmarkDetectorDay(b *testing.B) {
	spec := scenario.TestSpec()
	sc, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	view := sc.TableViewAt(sc.ObservedDays[0])
	var views []*rib.TableView
	views = append(views, view)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		det := core.NewDetector()
		det.ObserveView(0, views[0])
	}
	b.ReportMetric(float64(view.Len()), "prefixes_per_day")
}
