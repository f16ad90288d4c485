package driver

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/scenario"
)

func testConfig() Config {
	return Config{
		Watch:     []bgp.ASN{8584},
		WatchSeqs: [][2]bgp.ASN{{3561, 15412}},
	}
}

// runTest builds the test scenario and runs the incremental driver on it.
func runTest(t *testing.T, cfg Config) *Result {
	t.Helper()
	sc, err := scenario.Build(scenario.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasics(t *testing.T) {
	res := runTest(t, testConfig())
	if len(res.Days) != len(res.Scenario.ObservedDays) {
		t.Fatalf("days = %d, want %d", len(res.Days), len(res.Scenario.ObservedDays))
	}
	if res.Registry.Len() == 0 {
		t.Fatal("no conflicts registered")
	}
	// Every day must see at least the exchange-point conflicts once they
	// have all started.
	for _, ds := range res.Days {
		if ds.Day >= res.Scenario.Spec.ExchangePointStartMax && ds.Total < res.Scenario.Spec.ExchangePoints {
			t.Fatalf("day %d: %d conflicts < %d exchange points", ds.Day, ds.Total, res.Scenario.Spec.ExchangePoints)
		}
	}
	// The scripted storm must show up in the watch counters.
	stormDay := res.Scenario.Spec.DayIndex(res.Scenario.Spec.Storms[0].Date)
	found := false
	for _, ds := range res.Days {
		if ds.Day == stormDay {
			found = true
			if ds.Involvement[0] < res.Scenario.Spec.Storms[0].DayCounts[0] {
				t.Fatalf("storm day involvement = %d, want ≥ %d",
					ds.Involvement[0], res.Scenario.Spec.Storms[0].DayCounts[0])
			}
		}
	}
	if !found {
		t.Fatal("storm day not among observed days")
	}
}

// TestIncrementalMatchesFullScan is the pipeline's central equivalence
// property: the O(changes)/day incremental driver and the literal
// full-table methodology must produce identical registries and identical
// daily statistics.
func TestIncrementalMatchesFullScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scan comparison is slow")
	}
	cfg := testConfig()
	sc1, err := scenario.Build(scenario.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunScenario(sc1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := scenario.Build(scenario.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunFullScanScenario(sc2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if fast.Registry.Len() != slow.Registry.Len() {
		t.Fatalf("registry sizes differ: %d vs %d", fast.Registry.Len(), slow.Registry.Len())
	}
	slowConflicts := slow.Registry.Conflicts()
	for _, sc := range slowConflicts {
		fc, ok := fast.Registry.Get(sc.Prefix)
		if !ok {
			t.Fatalf("conflict %s missing from incremental registry", sc.Prefix)
		}
		if fc.DaysObserved != sc.DaysObserved || fc.FirstDay != sc.FirstDay || fc.LastDay != sc.LastDay {
			t.Fatalf("conflict %s bookkeeping differs: fast{%d,%d,%d} slow{%d,%d,%d}",
				sc.Prefix, fc.DaysObserved, fc.FirstDay, fc.LastDay,
				sc.DaysObserved, sc.FirstDay, sc.LastDay)
		}
		if len(fc.OriginsEver) != len(sc.OriginsEver) {
			t.Fatalf("conflict %s origins differ: %v vs %v", sc.Prefix, fc.OriginsEver, sc.OriginsEver)
		}
		for i := range fc.OriginsEver {
			if fc.OriginsEver[i] != sc.OriginsEver[i] {
				t.Fatalf("conflict %s origins differ: %v vs %v", sc.Prefix, fc.OriginsEver, sc.OriginsEver)
			}
		}
		if fc.ClassDays != sc.ClassDays {
			t.Fatalf("conflict %s class days differ: %v vs %v", sc.Prefix, fc.ClassDays, sc.ClassDays)
		}
	}

	if len(fast.Days) != len(slow.Days) {
		t.Fatalf("day counts differ")
	}
	for i := range fast.Days {
		f, s := fast.Days[i], slow.Days[i]
		if f.Total != s.Total || f.ByClass != s.ByClass || f.ByLen != s.ByLen {
			t.Fatalf("day %d stats differ:\n fast %+v\n slow %+v", f.Day, f, s)
		}
		for w := range f.Involvement {
			if f.Involvement[w] != s.Involvement[w] {
				t.Fatalf("day %d involvement differs", f.Day)
			}
		}
		for w := range f.SeqHits {
			if f.SeqHits[w] != s.SeqHits[w] {
				t.Fatalf("day %d seq hits differ: %d vs %d", f.Day, f.SeqHits[w], s.SeqHits[w])
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, b := runTest(t, testConfig()), runTest(t, testConfig())
	if a.Registry.Len() != b.Registry.Len() || len(a.Days) != len(b.Days) {
		t.Fatal("runs differ in size")
	}
	for i := range a.Days {
		if a.Days[i].Total != b.Days[i].Total {
			t.Fatal("runs differ in daily totals")
		}
	}
}

func TestHasSeq(t *testing.T) {
	p := bgp.MustParsePath("701 3561 15412")
	if !hasSeq(p, [2]bgp.ASN{3561, 15412}) {
		t.Error("consecutive pair not found")
	}
	if hasSeq(p, [2]bgp.ASN{701, 15412}) {
		t.Error("non-consecutive pair matched")
	}
	if hasSeq(p, [2]bgp.ASN{15412, 3561}) {
		t.Error("reversed pair matched")
	}
	setPath := bgp.Path{{Type: bgp.SegSet, ASes: []bgp.ASN{3561, 15412}}}
	if hasSeq(setPath, [2]bgp.ASN{3561, 15412}) {
		t.Error("AS_SET members matched as a sequence")
	}
}

// TestBiHourlySamplingIdempotent reproduces the related-work detail that
// Huston's tracker switched from daily to bi-hourly sampling: observing
// the same day's table repeatedly must not inflate durations or daily
// counts (the registry treats any number of same-day observations as one).
func TestBiHourlySamplingIdempotent(t *testing.T) {
	sc, err := scenario.Build(scenario.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	days := sc.ObservedDays[:3]

	detect := func(samplesPerDay int) *core.Registry {
		det := core.NewDetector()
		for _, day := range days {
			view := sc.TableViewAt(day)
			for s := 0; s < samplesPerDay; s++ {
				det.ObserveView(day, view)
			}
		}
		return det.Registry()
	}
	daily := detect(1)
	biHourly := detect(12)
	if daily.Len() != biHourly.Len() {
		t.Fatalf("registry sizes differ: %d vs %d", daily.Len(), biHourly.Len())
	}
	for _, c := range daily.Conflicts() {
		b, ok := biHourly.Get(c.Prefix)
		if !ok || b.DaysObserved != c.DaysObserved {
			t.Fatalf("bi-hourly sampling changed duration for %s", c.Prefix)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := testConfig()
	var lines []string
	cfg.Progress = func(s string) { lines = append(lines, s) }
	runTest(t, cfg)
	if len(lines) == 0 {
		t.Fatal("no progress lines")
	}
}
