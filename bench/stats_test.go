package bench

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0}, {99, 0}, // not even p90 has ten samples above it
		{100, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {99999, 99.9},
		{100000, 99.99}, {5000000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %g, want 2.5", got)
	}
	if got := quantileSorted([]float64{0, 10}, 0.9); math.Abs(got-9) > 1e-9 {
		t.Errorf("interpolated p90 = %g, want 9", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestIQRShareMatchesPythonExclusiveQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if got, want := iqrShare([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare of four = %g, want %g", got, want)
	}
	// Below four samples the range stands in; one sample has no spread.
	if got := iqrShare([]float64{3, 1, 2}); got != 1 {
		t.Errorf("iqrShare of three = %g, want (3-1)/2", got)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one sample = %g, want 0", got)
	}
}

func TestMedianOfWindowMediansResistsOneBusyStalledWindow(t *testing.T) {
	var samples []timedSample
	// Four quiet seconds of ten 1 ms samples each...
	for sec := 0; sec < 5; sec++ {
		if sec == 2 {
			continue
		}
		for i := 0; i < 10; i++ {
			samples = append(samples, timedSample{time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond, 1})
		}
	}
	// ...and one stalled second that also holds most of the samples.
	for i := 0; i < 500; i++ {
		samples = append(samples, timedSample{2*time.Second + time.Duration(i)*time.Millisecond, 600})
	}
	wm := windowMedians(samples, time.Second)
	if len(wm) != 5 || wm[2] != 600 || wm[0] != 1 {
		t.Fatalf("window medians = %v, want [1 1 600 1 1]", wm)
	}
	if got := medianOfWindowMedians(samples, time.Second); got != 1 {
		t.Errorf("median of window medians = %g, want 1 (a plain median would say 600)", got)
	}
	// A window without samples is skipped, not counted as zero.
	gap := []timedSample{{0, 4}, {3 * time.Second, 8}}
	if wm := windowMedians(gap, time.Second); len(wm) != 2 {
		t.Errorf("window medians over a gap = %v, want two windows", wm)
	}
}
