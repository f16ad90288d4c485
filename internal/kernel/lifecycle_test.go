package kernel

import "testing"

func TestSpanLen(t *testing.T) {
	cases := []struct {
		s    Span
		now  int
		want int
	}{
		{Span{Start: 10, End: 15}, 99, 5},    // ended: [10,15)
		{Span{Start: 10, End: 10}, 99, 1},    // started and ended same day
		{Span{Start: 10, Open: true}, 10, 1}, // open, seen once
		{Span{Start: 10, Open: true}, 14, 5}, // open, inclusive of now
	}
	for _, c := range cases {
		if got := c.s.Len(c.now); got != c.want {
			t.Errorf("Len(%+v, now=%d) = %d, want %d", c.s, c.now, got, c.want)
		}
	}
}

func TestLifecycle(t *testing.T) {
	var d Durations
	if st := d.Stats(); st != (LifecycleStats{}) {
		t.Fatalf("empty lifecycle = %+v", st)
	}
	d.add(Span{Start: 0, End: 2}, 10, 1)     // 2 days
	d.add(Span{Start: 5, End: 6}, 10, 1)     // 1 day
	d.add(Span{Start: 0, Open: true}, 10, 1) // 11 days at now=10
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
	d.add(Span{Start: 3, End: 5}, 10, 2)
	d.add(Span{Start: 1, End: 8}, 10, 3)
	if st := d.Stats(); st.Spans != 8 || st.MedianDays != 4.5 || st.MeanDays != 39.0/8 {
		t.Fatalf("counted spans: %+v, want 8 spans, median 4.5, mean %v", st, 39.0/8)
	}
}
