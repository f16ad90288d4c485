package kernel

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
)

func TestSpanLen(t *testing.T) {
	cases := []struct {
		start, end, now int
		open            bool
		want            int
	}{
		{10, 15, 99, false, 5},  // ended: [10,15)
		{10, 10, 99, false, 1},  // started and ended same day
		{10, 0, 10, true, 1},    // open, seen once
		{10, 0, 14, true, 5},    // open, inclusive of now
		{10, 0, 9, true, 0},     // open, not yet seen by a day close
		{20000, 0, -1, true, 0}, // open, no day closed at all
	}
	for _, c := range cases {
		var d Durations
		d.add(c.start, c.end, c.now, 1, c.open)
		if got := d.Stats().MaxDays; got != c.want {
			t.Errorf("add(%+v) lasts %d days, want %d", c, got, c.want)
		}
	}
}

// TestOpenActivationNeverNegative: an open activation no day close has
// seen lasts 0 days, in the two shapes that reach it — a live feed before
// its first UTC midnight (no close: as of day -1, the conflict on absolute
// day 20000) and a replay whose calendar skips from a close on day 5 to a
// conflict starting on day 9.
func TestOpenActivationNeverNegative(t *testing.T) {
	p := bgp.MustParsePrefix("10.0.0.0/8")
	for _, c := range []struct {
		name        string
		closes      []int
		start, asOf int
	}{
		{"live-before-first-midnight", nil, 20000, -1},
		{"calendar-gap", []int{4, 5}, 9, 5},
	} {
		k := New(Options{})
		for _, day := range c.closes {
			k.CloseDay(day)
		}
		k.Apply(Obs{Day: c.start, Prefix: p, Origins: []bgp.ASN{1, 2}, Class: core.ClassDistinctPaths})
		var d Durations
		k.AddDurations(&d, c.asOf)
		if st := d.Stats(); st != (LifecycleStats{Spans: 1, Open: 1}) {
			t.Errorf("%s: lifecycle %+v, want one open activation of 0 days", c.name, st)
		}
	}
}

func TestLifecycle(t *testing.T) {
	var d Durations
	if st := d.Stats(); st != (LifecycleStats{}) {
		t.Fatalf("empty lifecycle = %+v", st)
	}
	d.add(0, 2, 10, 1, false) // 2 days
	d.add(5, 6, 10, 1, false) // 1 day
	d.add(0, 0, 10, 1, true)  // 11 days at now=10
	st := d.Stats()
	if st.Spans != 3 || st.Open != 1 {
		t.Fatalf("spans/open = %d/%d", st.Spans, st.Open)
	}
	if st.MaxDays != 11 {
		t.Fatalf("MaxDays = %d, want 11", st.MaxDays)
	}
	if st.MedianDays != 2 {
		t.Fatalf("MedianDays = %v, want 2", st.MedianDays)
	}
	if want := float64(2+1+11) / 3; st.MeanDays != want {
		t.Fatalf("MeanDays = %v, want %v", st.MeanDays, want)
	}
	// An even count takes the mean of the middle pair, and a counted span
	// weighs as many as it stands for: 1, 2, 2, 2, 7, 7, 7, 11.
	d.add(3, 5, 10, 2, false)
	d.add(1, 8, 10, 3, false)
	if st := d.Stats(); st.Spans != 8 || st.MedianDays != 4.5 || st.MeanDays != 39.0/8 {
		t.Fatalf("counted spans: %+v, want 8 spans, median 4.5, mean %v", st, 39.0/8)
	}
}
