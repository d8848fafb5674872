package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a "p99" read from fewer than ten samples beyond it is one or two
// outliers, not a tail.
const minBeyond = 10

// tail is a reduced latency distribution: the median and the tail read at
// the highest percentile, up to p99, that still has at least minBeyond
// samples above it.
type tail struct {
	N   int     // samples reduced
	P50 float64 // median, as the nearest-rank order statistic
	// Pct is the percentile Hi was read at: 99 once N >= 1000, lower for
	// smaller sample sets, and 0 when N <= minBeyond leaves no tail at all
	// (Hi is then the maximum).
	Pct float64
	Hi  float64
}

// reduce sorts a copy of samples and reads the median and the tail.
func reduce(samples []float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: n, P50: s[(n+1)/2-1], Hi: s[n-1]}
	// rank is the 1-based order statistic read as the tail; the samples
	// beyond it are the n-rank with a larger rank.
	rank := int(math.Ceil(0.99 * float64(n)))
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if rank >= 1 {
		t.Pct = 100 * float64(rank) / float64(n)
		t.Hi = s[rank-1]
	}
	return t
}

// quantile reads q from sorted samples by linear interpolation between
// the two nearest order statistics.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median is quantile 0.5 of an unsorted sample set.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
