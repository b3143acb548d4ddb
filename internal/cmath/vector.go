// Package cmath provides complex-valued vector and matrix primitives for
// the Wi-Vi signal-processing chain: dense complex matrices, the frame
// kernel's Hermitian eigensolver (EigWorkspace) with its cyclic-Jacobi
// reference (HermitianEig), and the handful of BLAS-like operations that
// the MUSIC algorithm and the MIMO nulling math require.
//
// Everything is implemented from scratch on top of the standard library;
// the package has no external dependencies.
package cmath

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vector is a dense complex vector.
type Vector []complex128

// Dot returns the standard inner product conj(v)·w.
// It panics if the lengths differ.
//
//wivi:hotpath
func (v Vector) Dot(w Vector) complex128 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmath: Dot length mismatch %d != %d", len(v), len(w)))
	}
	var s complex128
	for i := range v {
		s += cmplx.Conj(v[i]) * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// Energy returns the squared Euclidean norm of v.
func (v Vector) Energy() float64 {
	var s float64
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return s
}

// Scale multiplies every element of v by a in place and returns v.
func (v Vector) Scale(a complex128) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Normalize scales v in place to unit norm and returns v.
// A zero vector is returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Conj returns the element-wise complex conjugate of v as a new vector.
func (v Vector) Conj() Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = cmplx.Conj(x)
	}
	return out
}
