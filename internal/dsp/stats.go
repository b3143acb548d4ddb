package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Median returns the median of x (0 for empty input). x is not modified.
func Median(x []float64) float64 { return Percentile(x, 50) }

// MedianBuf is Median sorting a copy of x inside buf (cap >= len(x)):
// no allocation when the caller reuses the buffer. It returns the same
// value as Median for every input.
//
//wivi:hotpath
func MedianBuf(x, buf []float64) float64 {
	return PercentileBuf(x, 50, buf)
}

// Percentile returns the p-th percentile (0-100) of x using linear
// interpolation between closest ranks. x is not modified. Empty input
// returns 0.
func Percentile(x []float64, p float64) float64 {
	return PercentileBuf(x, p, make([]float64, len(x)))
}

// PercentileBuf is Percentile with the sort scratch provided by the
// caller (cap >= len(x)) — the shared kernel behind Percentile and
// MedianBuf, so buffered and unbuffered calls agree bit for bit.
//
//wivi:hotpath
func PercentileBuf(x []float64, p float64, buf []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sorted := buf[:len(x)]
	copy(sorted, x)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the minimum and maximum of x. Empty input returns (0, 0).
func MinMax(x []float64) (min, max float64) {
	if len(x) == 0 {
		return 0, 0
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// DB converts a linear power ratio to decibels. Non-positive input returns
// -inf dB clamped to -300 to keep downstream arithmetic finite.
func DB(powerRatio float64) float64 {
	if powerRatio <= 0 {
		return -300
	}
	return 10 * math.Log10(powerRatio)
}

// CDF is an empirical cumulative distribution function over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the samples (which are copied).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x) for the empirical distribution.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X <= v) >= q,
// for q in (0, 1]. q <= 0 returns the minimum sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Median returns the empirical median.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF as a
// step function; one point per sample.
func (c *CDF) Points() (xs, ps []float64) {
	xs = make([]float64, len(c.sorted))
	ps = make([]float64, len(c.sorted))
	copy(xs, c.sorted)
	n := float64(len(c.sorted))
	for i := range ps {
		ps[i] = float64(i+1) / n
	}
	return xs, ps
}

// Argmax returns the index of the maximum element of x (-1 for empty).
func Argmax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}
