package cmath

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmath: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Col returns column j as a new vector.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// ConjTranspose returns the Hermitian transpose of m as a new matrix.
func (m *Matrix) ConjTranspose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// Mul returns the matrix product m * b as a new matrix.
// It panics on inner-dimension mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("cmath: Mul dims %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := range rowB {
				rowOut[j] += a * rowB[j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v as a new vector.
// It panics on dimension mismatch.
func (m *Matrix) MulVec(v Vector) Vector {
	return m.MulVecInto(make(Vector, m.Rows), v)
}

// MulVecInto computes m * v into dst and returns dst: MulVec without the
// allocation. It panics on dimension mismatch.
//
//wivi:hotpath
func (m *Matrix) MulVecInto(dst, v Vector) Vector {
	if m.Cols != len(v) || len(dst) != m.Rows {
		panic(fmt.Sprintf("cmath: MulVecInto dims %d <- %dx%d * %d", len(dst), m.Rows, m.Cols, len(v)))
	}
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
	return dst
}

// AddOuter accumulates the rank-1 update m += v * conj(w)^T in place.
// It panics on dimension mismatch.
//
//wivi:hotpath
func (m *Matrix) AddOuter(v, w Vector) {
	if m.Rows != len(v) || m.Cols != len(w) {
		panic(fmt.Sprintf("cmath: AddOuter dims %dx%d += %d x %d", m.Rows, m.Cols, len(v), len(w)))
	}
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += vi * cmplx.Conj(w[j])
		}
	}
}

// ScaleInPlace multiplies every element by a and returns m.
func (m *Matrix) ScaleInPlace(a complex128) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// IsHermitian reports whether m is Hermitian within tolerance tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		if math.Abs(imag(m.At(i, i))) > tol {
			return false
		}
		for j := i + 1; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%8.4f%+8.4fi ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		s += "\n"
	}
	return s
}
