package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median and mean of no samples should be NaN")
	}
	// The mean moves with the share of each mode; the median jumps.
	if got := mean([]float64{440, 440, 570, 570, 570}); got != 518 {
		t.Errorf("mean = %v, want 518", got)
	}
}

func TestQuantileOverFailedSampleIsInf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[99] = math.Inf(1)
	if got := quantile(xs, 0.995); !math.IsInf(got, 1) {
		t.Errorf("quantile reaching a failed sample = %v, want +Inf", got)
	}
	if got := quantile(xs, 0.5); got != 49.5 {
		t.Errorf("median = %v, want 49.5", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if beyond(1200, 99) != 12 {
		t.Errorf("beyond(1200, 99) = %d, want 12", beyond(1200, 99))
	}
}

func TestReferenceWorkIsFixed(t *testing.T) {
	if a, b := referenceWork(), referenceWork(); a != b || a == 0 {
		t.Errorf("reference checksums %d and %d, want one non-zero value", a, b)
	}
	if referenceCPU() <= 0 {
		t.Error("reference computation took no CPU time")
	}
}
