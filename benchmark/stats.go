package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n sorted samples. The epsilon keeps p·n/100 from rounding up
// past an exact integer (99.9 % of 10,000 is rank 9,990, not 9,991).
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentileLadder is the set of percentiles a report may name, lowest
// first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// highestPercentile returns the highest percentile of the ladder that
// still has at least ten of the n samples beyond it — the tail a report
// may state without reading noise — and false when even the median has
// fewer.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if samplesBeyond(n, p) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// median returns the median of xs (mean of the two middle values for an
// even count) without reordering xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
