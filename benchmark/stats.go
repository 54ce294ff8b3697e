package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before it is
// trusted: p95 therefore needs 200 samples.
const tailSamples = 10

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of v: the smallest
// sample with at least q of the samples at or below it. It never
// interpolates, so the value is always one that was measured. Empty input
// reads 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailOK reports whether the nearest-rank q-quantile of n samples has at
// least tailSamples samples beyond it.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= tailSamples
}

// median is the usual median (mean of the two middle samples for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (its default "exclusive" method), so the
// spread this tool prints is the number the acceptance rule is stated in.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
