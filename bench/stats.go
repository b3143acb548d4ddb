package main

// Order statistics shared by the report and -compare.

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of values (the
// smallest sample with at least p% of the samples at or below it); NaN
// for an empty set. values is not modified.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the usual median (the mean of the middle two of an even
// count), as Python's statistics.median gives it; NaN for an empty set.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps decimal levels such as 99.9 from rounding a whole
	// rank up.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevel picks the highest percentile in tailLevels that has at least
// minBeyond of n samples beyond it; ok is false when even the lowest has
// fewer (then only the median is worth reporting).
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), which is how the benchmark's spread is judged. It needs at
// least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
