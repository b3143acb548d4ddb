// Package dsp implements the signal-processing primitives used throughout
// the Wi-Vi pipeline: FFT/IFFT, convolution and matched filtering, peak
// detection, and the descriptive statistics used by the evaluation
// harness (CDFs, percentiles, dB conversions).
//
// All routines are deterministic, allocation-conscious and stdlib-only.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x as a new slice.
// Any length is supported: powers of two use an iterative radix-2
// Cooley-Tukey kernel; other lengths fall back to Bluestein's algorithm.
// Each call computes its own twiddle factors: the only callers are
// per-call spectra and convolutions, not a per-symbol loop. FFTInto is
// the buffered form.
func FFT(x []complex128) []complex128 {
	return FFTInto(make([]complex128, len(x)), x)
}

// IFFT returns the inverse discrete Fourier transform of x (normalized by
// 1/N) as a new slice. IFFTInto is the buffered form.
func IFFT(x []complex128) []complex128 {
	return IFFTInto(make([]complex128, len(x)), x)
}

// FFTInto computes the DFT of x into dst: no allocation for a
// power-of-two length, while a Bluestein length allocates one buffer per
// call. dst and x must share one length; dst may be x itself for an
// in-place transform, but the two must not partially overlap. Returns
// dst.
//
//wivi:hotpath
func FFTInto(dst, x []complex128) []complex128 {
	validateSameLen("FFTInto", len(dst), len(x))
	copy(dst, x)
	fftInPlace(dst, false)
	return dst
}

// IFFTInto is FFTInto for the inverse transform (1/N normalized).
//
//wivi:hotpath
func IFFTInto(dst, x []complex128) []complex128 {
	validateSameLen("IFFTInto", len(dst), len(x))
	copy(dst, x)
	fftInPlace(dst, true)
	return dst
}

// fftInPlace transforms x in place. If inverse is true the inverse
// transform (including the 1/N normalization) is computed.
//
//wivi:hotpath
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		scale := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= scale
		}
	}
}

// radix2 is an iterative in-place radix-2 Cooley-Tukey FFT. n must be a
// power of two >= 2. No normalization is applied. Each stage steps its
// twiddle factor by the multiplicative recurrence w *= wStep, not
// cmplx.Rect per index, which would round differently and move every
// figure computed from a transform.
//
//wivi:hotpath
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution using
// zero-padded power-of-two FFTs (the chirp-z transform).
//
//wivi:hotpath
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// The chirp and the two zero-padded operands of the convolution.
	m := NextPow2(2*n - 1)
	buf := make([]complex128, n+2*m) //wivi:alloc a Bluestein length serves only one-off spectra, so nothing repeats a size worth keeping buffers for
	chirp, a, b := buf[:n], buf[n:n+m], buf[n+m:]
	// chirp[k] = exp(sign * i*pi*k^2/n), with k^2 taken mod 2n in int64
	// so large k cannot blow up the float argument.
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % (2 * int64(n))
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
}

// FFTShift rotates the spectrum so the zero-frequency bin is centered,
// returning a new slice. FFTShiftInto is the allocation-free form.
func FFTShift(x []complex128) []complex128 {
	return FFTShiftInto(make([]complex128, len(x)), x)
}

// FFTShiftInto is FFTShift copying into dst, which must share x's length
// and must not alias it (the rotation is not in-place). Returns dst.
//
//wivi:hotpath
func FFTShiftInto(dst, x []complex128) []complex128 {
	validateSameLen("FFTShiftInto", len(dst), len(x))
	n := len(x)
	half := (n + 1) / 2
	copy(dst, x[half:])
	copy(dst[n-half:], x[:half])
	return dst
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// PowerSpectrum returns |FFT(x)|^2 for each bin as a new slice.
// PowerSpectrumInto is the allocation-free form.
func PowerSpectrum(x []complex128) []float64 {
	return PowerSpectrumInto(make([]float64, len(x)), x, make([]complex128, len(x)))
}

// PowerSpectrumInto computes |FFT(x)|^2 into dst with the transform
// landing in scratch (allocating only a Bluestein length's buffers). All
// three slices must share one length; scratch may be x itself, which is then overwritten by its own
// spectrum — the natural shape for callers that already hold a private
// copy. Returns dst.
//
//wivi:hotpath
func PowerSpectrumInto(dst []float64, x, scratch []complex128) []float64 {
	validateSameLen("PowerSpectrumInto", len(dst), len(x))
	validateSameLen("PowerSpectrumInto", len(scratch), len(x))
	FFTInto(scratch, x)
	for i, v := range scratch {
		re, im := real(v), imag(v)
		dst[i] = re*re + im*im
	}
	return dst
}

// validateSameLen panics unless the two slices share a length; used by the
// element-wise kernels below.
func validateSameLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("dsp: %s length mismatch %d != %d", op, a, b))
	}
}
