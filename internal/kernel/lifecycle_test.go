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
	if st := Lifecycle(nil, 0); st.Spans != 0 || st.MedianDays != 0 {
		t.Fatalf("empty lifecycle = %+v", st)
	}
	spans := []Span{
		{Start: 0, End: 2},     // 2 days
		{Start: 5, End: 6},     // 1 day
		{Start: 0, Open: true}, // 11 days at now=10
	}
	st := Lifecycle(spans, 10)
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
}
