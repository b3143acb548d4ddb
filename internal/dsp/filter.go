package dsp

import "math"

// Convolve returns the full linear convolution of x and h
// (length len(x)+len(h)-1). Small inputs use the direct method; large ones
// use FFT-based fast convolution. Either input may be empty, in which case
// the result is empty.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	n := len(x) + len(h) - 1
	if len(x)*len(h) <= 4096 {
		out := make([]float64, n)
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			for j, hv := range h {
				out[i+j] += xv * hv
			}
		}
		return out
	}
	m := NextPow2(n)
	fx := make([]complex128, m)
	fh := make([]complex128, m)
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	for i, v := range h {
		fh[i] = complex(v, 0)
	}
	radix2(fx, false)
	radix2(fh, false)
	for i := range fx {
		fx[i] *= fh[i]
	}
	radix2(fx, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for i := range out {
		out[i] = real(fx[i]) * inv
	}
	return out
}

// MatchedFilter correlates signal x against template t and returns the
// "same"-length output aligned so that out[i] is the correlation of the
// template centered at x[i]. This is the standard matched-filter detector
// used by the gesture decoder (§6.2 of the paper).
func MatchedFilter(x, t []float64) []float64 {
	if len(x) == 0 || len(t) == 0 {
		return nil
	}
	// Correlation = convolution with reversed template.
	rev := make([]float64, len(t))
	for i, v := range t {
		rev[len(t)-1-i] = v
	}
	full := Convolve(x, rev)
	// Center crop to len(x).
	start := (len(t) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[start:start+len(x)])
	return out
}

// TriangleTemplate returns a unit-peak triangular pulse of length n:
// 0 -> 1 -> 0. This is the matched-filter template for one gesture step
// (the angle-energy of a step rises and falls as the arm of the triangle in
// Fig. 6-1). n < 1 returns nil.
func TriangleTemplate(n int) []float64 {
	if n < 1 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	mid := float64(n-1) / 2
	for i := range out {
		out[i] = 1 - math.Abs(float64(i)-mid)/mid
	}
	return out
}
