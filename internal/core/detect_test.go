package core

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/rib"
)

func viewOf(t *testing.T, entries map[string][]string) *rib.TableView {
	t.Helper()
	v := rib.NewTableView()
	for prefix, paths := range entries {
		p := bgp.MustParsePrefix(prefix)
		for i, s := range paths {
			v.Add(rib.PeerRoute{
				PeerID: uint16(i),
				Route:  bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path(s)}},
			})
		}
	}
	return v
}

func TestObserveViewBasic(t *testing.T) {
	d := NewDetector()
	view := viewOf(t, map[string][]string{
		"10.0.0.0/8":      {"701 9", "1239 9"},                 // same origin: no conflict
		"198.51.100.0/24": {"701 2001 3001", "1239 2002 3002"}, // conflict
		"203.0.113.0/24":  {"701 8584", "1239 2002 3002"},      // conflict
	})
	obs := d.ObserveView(1, view)
	if obs.Count() != 2 {
		t.Fatalf("Count = %d, want 2", obs.Count())
	}
	if obs.TotalPrefixes != 3 {
		t.Fatalf("TotalPrefixes = %d", obs.TotalPrefixes)
	}
	// Canonical order: 198.51.100.0/24 before 203.0.113.0/24.
	if obs.Conflicts[0].Prefix.String() != "198.51.100.0/24" {
		t.Fatalf("conflicts out of order: %v", obs.Conflicts[0].Prefix)
	}
	if d.Registry().Len() != 2 {
		t.Fatalf("registry has %d conflicts", d.Registry().Len())
	}
}

func TestObserveViewASSetExclusion(t *testing.T) {
	d := NewDetector()
	// The second origin appears only via an AS_SET-terminated path, which
	// §III excludes — so no conflict.
	view := viewOf(t, map[string][]string{
		"198.51.100.0/24": {"701 3001", "1239 {3001,3002}"},
	})
	obs := d.ObserveView(1, view)
	if obs.Count() != 0 {
		t.Fatalf("AS_SET route created a conflict")
	}
	if obs.ExcludedASSet != 1 {
		t.Fatalf("ExcludedASSet = %d", obs.ExcludedASSet)
	}
}

func TestDetectorDurationAccounting(t *testing.T) {
	d := NewDetector()
	p := bgp.MustParsePrefix("198.51.100.0/24")
	conflicted := []rib.PeerRoute{
		{PeerID: 0, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("701 3001")}}},
		{PeerID: 1, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("1239 3002")}}},
	}
	clean := conflicted[:1]

	// Active days 1,2, gap, active 5, then clean.
	for _, day := range []int{1, 2, 5} {
		var obs DayObservation
		if !d.ObservePrefix(day, p, conflicted, &obs) {
			t.Fatalf("day %d: conflict not detected", day)
		}
	}
	if d.ObservePrefix(6, p, clean, nil) {
		t.Fatal("clean day detected as conflict")
	}

	c, ok := d.Registry().Get(p)
	if !ok {
		t.Fatal("conflict missing from registry")
	}
	if c.DaysObserved != 3 {
		t.Fatalf("DaysObserved = %d, want 3 (non-contiguous days count individually)", c.DaysObserved)
	}
	if c.FirstDay != 1 || c.LastDay != 5 {
		t.Fatalf("span = [%d,%d], want [1,5]", c.FirstDay, c.LastDay)
	}
	if c.Duration() != 3 {
		t.Fatalf("Duration = %d", c.Duration())
	}
}

func TestDetectorSameDayIdempotent(t *testing.T) {
	d := NewDetector()
	p := bgp.MustParsePrefix("198.51.100.0/24")
	routes := []rib.PeerRoute{
		{PeerID: 0, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("701 3001")}}},
		{PeerID: 1, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("1239 3002")}}},
	}
	d.ObservePrefix(3, p, routes, nil)
	d.ObservePrefix(3, p, routes, nil) // bi-hourly style re-observation
	c, _ := d.Registry().Get(p)
	if c.DaysObserved != 1 {
		t.Fatalf("DaysObserved = %d after same-day re-observation", c.DaysObserved)
	}
}

func TestRegistryOriginAccumulation(t *testing.T) {
	d := NewDetector()
	p := bgp.MustParsePrefix("198.51.100.0/24")
	day1 := []rib.PeerRoute{
		{PeerID: 0, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("701 3001")}}},
		{PeerID: 1, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("1239 3002")}}},
	}
	day2 := []rib.PeerRoute{
		{PeerID: 0, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("701 3001")}}},
		{PeerID: 1, Route: bgp.Route{Prefix: p, Attrs: &bgp.Attrs{ASPath: path("1239 8584")}}},
	}
	d.ObservePrefix(1, p, day1, nil)
	d.ObservePrefix(2, p, day2, nil)
	c, _ := d.Registry().Get(p)
	want := []bgp.ASN{3001, 3002, 8584}
	if len(c.OriginsEver) != len(want) {
		t.Fatalf("OriginsEver = %v", c.OriginsEver)
	}
	for i := range want {
		if c.OriginsEver[i] != want[i] {
			t.Fatalf("OriginsEver = %v, want %v", c.OriginsEver, want)
		}
	}
	// Same prefix, different origin sets on different days: one conflict.
	if d.Registry().Len() != 1 {
		t.Fatalf("registry Len = %d", d.Registry().Len())
	}
}

func TestRegistryClassDaysAndDominant(t *testing.T) {
	r := NewRegistry()
	p := bgp.MustParsePrefix("198.51.100.0/24")
	r.Record(1, p, []bgp.ASN{1, 2}, ClassDistinctPaths)
	r.Record(2, p, []bgp.ASN{1, 2}, ClassDistinctPaths)
	r.Record(3, p, []bgp.ASN{1, 2}, ClassSplitView)
	c, _ := r.Get(p)
	if c.ClassDays[ClassDistinctPaths] != 2 || c.ClassDays[ClassSplitView] != 1 {
		t.Fatalf("ClassDays = %v", c.ClassDays)
	}
	if c.DominantClass() != ClassDistinctPaths {
		t.Fatalf("DominantClass = %v", c.DominantClass())
	}
}

func TestRegistryOngoingAt(t *testing.T) {
	r := NewRegistry()
	p1 := bgp.MustParsePrefix("198.51.100.0/24")
	p2 := bgp.MustParsePrefix("203.0.113.0/24")
	r.Record(10, p1, []bgp.ASN{1, 2}, ClassDistinctPaths)
	r.Record(99, p1, []bgp.ASN{1, 2}, ClassDistinctPaths)
	r.Record(50, p2, []bgp.ASN{3, 4}, ClassDistinctPaths)
	if got := r.OngoingAt(99); got != 1 {
		t.Fatalf("OngoingAt(99) = %d", got)
	}
	if got := r.OngoingAt(100); got != 0 {
		t.Fatalf("OngoingAt(100) = %d", got)
	}
}

func TestRegistryConflictsSorted(t *testing.T) {
	r := NewRegistry()
	ps := []string{"203.0.113.0/24", "10.0.0.0/8", "198.51.100.0/24"}
	for _, s := range ps {
		r.Record(1, bgp.MustParsePrefix(s), []bgp.ASN{1, 2}, ClassDistinctPaths)
	}
	cs := r.Conflicts()
	if len(cs) != 3 {
		t.Fatalf("Conflicts len = %d", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Prefix.Compare(cs[i].Prefix) >= 0 {
			t.Fatal("Conflicts not sorted")
		}
	}
}

func TestMergeOrigins(t *testing.T) {
	got := mergeOrigins([]bgp.ASN{2, 5, 9}, []bgp.ASN{1, 5, 10})
	want := []bgp.ASN{1, 2, 5, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("mergeOrigins = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeOrigins = %v, want %v", got, want)
		}
	}
}

func BenchmarkObservePrefix(b *testing.B) {
	d := NewDetector()
	p := bgp.MustParsePrefix("198.51.100.0/24")
	routes := prs("701 2001 3001", "1239 2002 3002", "209 2001 3001", "3356 2002 3002")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ObservePrefix(i, p, routes, nil)
	}
}

func BenchmarkClassifyRoutes(b *testing.B) {
	routes := prs(
		"701 2001 3001", "1239 2002 3002", "209 2001 3001",
		"3356 2002 3002", "2914 2001 3001", "7018 2002 3002",
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ClassifyRoutes(routes)
	}
}
