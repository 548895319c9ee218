package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over fewer than 1000 samples is decided by
// fewer than ten observations and says little.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; NaN for an empty set. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		// An interpolation toward +Inf (a failed request) is +Inf.
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs; NaN for an empty set.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beyond is how many of n samples lie strictly above the p-th
// percentile (p in percent). The epsilon keeps 100 − 99.9 from flooring
// a whole count away.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// supports reports whether n samples are enough to report the p-th
// percentile: at least minBeyond samples must lie above it.
func supports(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// highestPercentile is the highest of the standard reporting
// percentiles that n samples support, or 0 when even the median is
// unsupported.
func highestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// pct is 100·a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
