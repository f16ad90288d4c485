package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int
		want float64
	}{
		{nil, 0},
		{[]int{5}, 5},
		{[]int{1, 3}, 2},
		{[]int{1, 2, 3}, 2},
		{[]int{810, 811}, 810.5}, // the paper's fractional median
		{[]int{1, 2, 3, 4}, 2.5},
	}
	for _, c := range cases {
		if got := MedianIntsSorted(c.in); got != c.want {
			t.Errorf("MedianIntsSorted(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMedianSortedAgreesWithMedian: MedianIntsSorted agrees with the
// median read off by counting — the least value with at least half the
// sample at or below it, averaged with its even-count partner.
func TestMedianSortedAgreesWithMedian(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return MedianIntsSorted(nil) == 0
		}
		var count [256]int
		is := make([]int, len(raw))
		for i, v := range raw {
			count[v]++
			is[i] = int(v)
		}
		// kth returns the k-th smallest sample (0-based).
		kth := func(k int) float64 {
			for v, seen := 0, 0; ; v++ {
				if seen += count[v]; seen > k {
					return float64(v)
				}
			}
		}
		n := len(raw)
		want := (kth((n-1)/2) + kth(n/2)) / 2
		sort.Ints(is)
		return MedianIntsSorted(is) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianSortedEdges(t *testing.T) {
	if MedianIntsSorted(nil) != 0 {
		t.Fatal("empty median != 0")
	}
	if got := MedianIntsSorted([]int{810, 811}); got != 810.5 {
		t.Fatalf("MedianIntsSorted even = %v, want 810.5", got)
	}
}

func TestCondExp(t *testing.T) {
	xs := []int{1, 1, 5, 10, 20, 300}
	mean, n := CondExp(xs, 1)
	if n != 4 || math.Abs(mean-83.75) > 1e-9 {
		t.Fatalf("CondExp(>1) = (%v, %d)", mean, n)
	}
	mean, n = CondExp(xs, 9)
	if n != 3 || math.Abs(mean-110) > 1e-9 {
		t.Fatalf("CondExp(>9) = (%v, %d)", mean, n)
	}
	if mean, n = CondExp(xs, 1000); n != 0 || mean != 0 {
		t.Fatalf("CondExp above max = (%v,%d)", mean, n)
	}
}

func TestCountOverAndMax(t *testing.T) {
	xs := []int{1, 5, 301, 500, 299}
	if CountOver(xs, 300) != 2 {
		t.Error("CountOver wrong")
	}
	if MaxInt(xs) != 500 || MaxInt(nil) != 0 {
		t.Error("MaxInt wrong")
	}
}

func TestHistAndBuckets(t *testing.T) {
	h := Hist([]int{1, 1, 2, 30, 31, 33})
	if h[1] != 2 || h[2] != 1 || h[30] != 1 {
		t.Fatalf("Hist = %v", h)
	}
	starts, counts := HistBuckets(h, 10)
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 30 {
		t.Fatalf("HistBuckets starts = %v", starts)
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("HistBuckets counts = %v", counts)
	}
	// width<1 is clamped to 1: one bucket per distinct value.
	s2, _ := HistBuckets(h, 0)
	if len(s2) != 5 {
		t.Fatalf("width-0 buckets = %v", s2)
	}
}

func TestGrowthPct(t *testing.T) {
	if got := GrowthPct(683, 810.5); math.Abs(got-18.67) > 0.1 {
		t.Fatalf("GrowthPct = %v, want ≈18.7 (the paper's 1999 rate)", got)
	}
	if GrowthPct(0, 5) != 0 {
		t.Fatal("GrowthPct(0,·) != 0")
	}
}

func TestQuickCondExpConsistent(t *testing.T) {
	// CondExp(xs, t) over threshold 0 equals the mean of positive samples.
	f := func(raw []uint8) bool {
		xs := make([]int, len(raw))
		var sum float64
		pos := 0
		for i, v := range raw {
			xs[i] = int(v)
			if v > 0 {
				sum += float64(v)
				pos++
			}
		}
		mean, n := CondExp(xs, 0)
		if n != pos {
			return false
		}
		if n == 0 {
			return mean == 0
		}
		return math.Abs(mean-sum/float64(pos)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
