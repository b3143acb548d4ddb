package cmath

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestVectorDotAndNorm(t *testing.T) {
	v := Vector{1, complex(0, 1)}
	w := Vector{complex(0, 1), 1}
	// conj(v).w = 1*i + (-i)*1 = i - i = 0
	if got := v.Dot(w); cmplx.Abs(got) > 1e-15 {
		t.Fatalf("Dot = %v, want 0", got)
	}
	if got := v.Norm(); math.Abs(got-math.Sqrt2) > 1e-15 {
		t.Fatalf("Norm = %v, want sqrt(2)", got)
	}
	if got := v.Energy(); math.Abs(got-2) > 1e-15 {
		t.Fatalf("Energy = %v, want 2", got)
	}
}

func TestVectorDotSelfIsEnergy(t *testing.T) {
	v := Vector{complex(1, 2), complex(-3, 0.5), complex(0, -1)}
	d := v.Dot(v)
	if math.Abs(imag(d)) > 1e-12 {
		t.Fatalf("v.Dot(v) not real: %v", d)
	}
	if math.Abs(real(d)-v.Energy()) > 1e-12 {
		t.Fatalf("v.Dot(v)=%v != Energy=%v", real(d), v.Energy())
	}
}

func TestVectorNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-14 {
		t.Fatalf("normalized norm = %v", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize() // must not panic or NaN
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector changed by Normalize")
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, complex(1, 1))
	m.Set(0, 1, 2)
	m.Set(1, 0, complex(0, -3))
	m.Set(1, 1, 4)
	got := m.Mul(Identity(2))
	for i := range got.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("M*I != M")
		}
	}
	got2 := Identity(2).Mul(m)
	for i := range got2.Data {
		if got2.Data[i] != m.Data[i] {
			t.Fatalf("I*M != M")
		}
	}
}

func TestMatrixConjTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 2, complex(1, 5))
	h := m.ConjTranspose()
	if h.Rows != 3 || h.Cols != 2 {
		t.Fatalf("ConjTranspose dims %dx%d", h.Rows, h.Cols)
	}
	if h.At(2, 0) != complex(1, -5) {
		t.Fatalf("ConjTranspose value %v", h.At(2, 0))
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, complex(0, 1))
	m.Set(1, 0, 2)
	m.Set(1, 1, 0)
	v := Vector{1, 1}
	got := m.MulVec(v)
	if got[0] != complex(1, 1) || got[1] != 2 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestAddOuterBuildsCorrelation(t *testing.T) {
	v := Vector{1, complex(0, 1)}
	m := NewMatrix(2, 2)
	m.AddOuter(v, v)
	// v v^H = [[1, -i], [i, 1]]
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Fatalf("diagonal wrong: %v %v", m.At(0, 0), m.At(1, 1))
	}
	if m.At(0, 1) != complex(0, -1) || m.At(1, 0) != complex(0, 1) {
		t.Fatalf("off-diagonal wrong: %v %v", m.At(0, 1), m.At(1, 0))
	}
	if !m.IsHermitian(1e-15) {
		t.Fatal("outer product not Hermitian")
	}
}

func TestIsHermitianTolerance(t *testing.T) {
	m := Identity(2)
	m.Set(0, 1, complex(0, 1e-6))
	m.Set(1, 0, complex(0, -1e-6))
	if !m.IsHermitian(1e-12) {
		t.Fatal("conjugate-symmetric matrix reported non-Hermitian")
	}
	m.Set(0, 1, 1e-3)
	if m.IsHermitian(1e-6) {
		t.Fatal("asymmetric matrix reported Hermitian")
	}
}

func TestMatrixPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	a.Mul(b)
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, complex(0, 4))
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
}
