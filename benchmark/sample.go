package main

import (
	"math"
	"slices"
)

// metric is one reported number. N is the count of raw samples behind a
// timing (0 for counts and ratios measured once).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the value is one outlier's latency.
const minBeyond = 10

// quantile returns the q-quantile of sorted raw samples by the nearest-rank
// rule (the smallest sample with at least q of the mass at or below it), and
// whether at least minBeyond samples lie strictly beyond that rank. Latencies
// are never bucketed: stats.Histogram rounds to powers of two, which prints
// the same p50 for six of seven op types.
func quantile(sorted []int64, q float64) (v int64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], q <= 0.5 || n-1-rank >= minBeyond
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (float form, for repeated set-ups and
// probe batches); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// pick returns the q-quantile of xs by the nearest-rank rule; xs is sorted in
// place.
func pick(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(rank, len(xs)-1))]
}

// trendQuiet fits a line of the Theil-Sen slope through ys at x = 0, 1, ...
// (the median of all pairwise slopes) and returns its value at the middle x.
// The line's height is the upper quartile of the points' intercepts, not their
// median: ys are rates, a disturbed point only ever lies below the line of the
// undisturbed ones, and so three quarters of the points can be arbitrarily low
// without moving the result by more than the scatter of the rest. Unlike a
// plain quantile it uses every point of a rising or falling series.
func trendQuiet(ys []float64) float64 {
	if len(ys) < 2 {
		return median(slices.Clone(ys))
	}
	var slopes []float64
	for i := range ys {
		for j := i + 1; j < len(ys); j++ {
			slopes = append(slopes, (ys[j]-ys[i])/float64(j-i))
		}
	}
	m := median(slopes)
	icepts := make([]float64, len(ys))
	for i, y := range ys {
		icepts[i] = y - m*float64(i)
	}
	return pick(icepts, 0.75) + m*float64(len(ys)-1)/2
}

// midMean returns the mean of the middle half of xs (the interquartile mean);
// xs is sorted in place.
func midMean(xs []float64) float64 {
	slices.Sort(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	if len(mid) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), which is what the driver's spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
