package cmath

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"wivi/internal/rng"
)

// randHermitian builds a random n x n Hermitian matrix from the given rng.
func randHermitian(r *rng.Stream, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(r.Norm(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(r.Norm(), r.Norm())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestHermitianEigDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 1)
	m.Set(1, 1, 5)
	m.Set(2, 2, 3)
	e, err := HermitianEig(m)
	if err != nil {
		t.Fatalf("HermitianEig: %v", err)
	}
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-12 {
			t.Errorf("eigenvalue %d = %v, want %v", i, e.Values[i], w)
		}
	}
}

func TestHermitianEigKnown2x2(t *testing.T) {
	// [[2, i], [-i, 2]] has eigenvalues 3 and 1.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, complex(0, 1))
	m.Set(1, 0, complex(0, -1))
	m.Set(1, 1, 2)
	e, err := HermitianEig(m)
	if err != nil {
		t.Fatalf("HermitianEig: %v", err)
	}
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 1]", e.Values)
	}
	// Check A v = lambda v for both pairs.
	for j := 0; j < 2; j++ {
		v := e.Vectors.Col(j)
		av := m.MulVec(v)
		for i := range av {
			diff := cmplx.Abs(av[i] - complex(e.Values[j], 0)*v[i])
			if diff > 1e-10 {
				t.Errorf("A v != lambda v for eigenpair %d (diff %g)", j, diff)
			}
		}
	}
}

func TestHermitianEigRejectsNonHermitian(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 2) // not conj-symmetric
	if _, err := HermitianEig(m); err != ErrNotHermitian {
		t.Fatalf("err = %v, want ErrNotHermitian", err)
	}
	rect := NewMatrix(2, 3)
	if _, err := HermitianEig(rect); err != ErrNotHermitian {
		t.Fatalf("rectangular err = %v, want ErrNotHermitian", err)
	}
}

func TestHermitianEigZeroMatrix(t *testing.T) {
	e, err := HermitianEig(NewMatrix(4, 4))
	if err != nil {
		t.Fatalf("HermitianEig zero: %v", err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", e.Values)
		}
	}
}

// TestHermitianEigProperties is a property-based test: for random Hermitian
// matrices, the decomposition must satisfy (1) real sorted eigenvalues,
// (2) A*V = V*diag(vals), (3) V unitary, (4) trace preservation.
func TestHermitianEigProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	sizes := []int{1, 2, 3, 5, 8, 13}
	seed := int64(0)
	f := func() bool {
		r := rng.New(seed)
		seed++
		n := sizes[r.Intn(len(sizes))]
		m := randHermitian(r, n)
		e, err := HermitianEig(m)
		if err != nil {
			t.Logf("decomposition error: %v", err)
			return false
		}
		// (1) sorted descending
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-9 {
				t.Logf("eigenvalues not sorted: %v", e.Values)
				return false
			}
		}
		// (2) A v = lambda v
		for j := 0; j < n; j++ {
			v := e.Vectors.Col(j)
			av := m.MulVec(v)
			for i := range av {
				if cmplx.Abs(av[i]-complex(e.Values[j], 0)*v[i]) > 1e-8*(1+math.Abs(e.Values[j])) {
					t.Logf("eigenpair %d fails A v = lambda v", j)
					return false
				}
			}
		}
		// (3) V^H V = I
		vhv := e.Vectors.ConjTranspose().Mul(e.Vectors)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(vhv.At(i, j)-want) > 1e-9 {
					t.Logf("V not unitary at (%d,%d): %v", i, j, vhv.At(i, j))
					return false
				}
			}
		}
		// (4) trace preserved
		var trA, trL float64
		for i := 0; i < n; i++ {
			trA += real(m.At(i, i))
			trL += e.Values[i]
		}
		if math.Abs(trA-trL) > 1e-8*(1+math.Abs(trA)) {
			t.Logf("trace mismatch %v vs %v", trA, trL)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseSubspaceDimensions(t *testing.T) {
	r := rng.New(7)
	m := randHermitian(r, 6)
	e, err := HermitianEig(m)
	if err != nil {
		t.Fatal(err)
	}
	ns := e.NoiseSubspace(2)
	if len(ns) != 4 {
		t.Fatalf("noise subspace size = %d, want 4", len(ns))
	}
	sig := e.EigenvectorColumns(2)
	if len(sig) != 2 {
		t.Fatalf("signal subspace size = %d, want 2", len(sig))
	}
	// Signal and noise vectors must be orthogonal.
	for _, s := range sig {
		for _, nv := range ns {
			if cmplx.Abs(s.Dot(nv)) > 1e-9 {
				t.Fatalf("signal/noise subspaces not orthogonal")
			}
		}
	}
}

func TestHermitianEigLowRank(t *testing.T) {
	// Rank-1 matrix v v^H: one eigenvalue = |v|^2, rest zero. This is the
	// exact structure of a single-source correlation matrix in MUSIC.
	v := Vector{1, complex(0, 1), complex(1, 1), 2}
	m := NewMatrix(4, 4)
	m.AddOuter(v, v)
	e, err := HermitianEig(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-v.Energy()) > 1e-9 {
		t.Fatalf("top eigenvalue %v, want %v", e.Values[0], v.Energy())
	}
	for _, rest := range e.Values[1:] {
		if math.Abs(rest) > 1e-9 {
			t.Fatalf("expected zero tail eigenvalues, got %v", e.Values)
		}
	}
	// Top eigenvector must be parallel to v.
	top := e.Vectors.Col(0)
	corr := cmplx.Abs(top.Dot(v)) / v.Norm()
	if math.Abs(corr-1) > 1e-9 {
		t.Fatalf("top eigenvector correlation = %v, want 1", corr)
	}
}

func mustEig(t *testing.T, a *Matrix) *Eig {
	t.Helper()
	e, err := HermitianEig(a)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// withSpectrum returns U·diag(vals)·Uᴴ for a random unitary U (the
// Jacobi eigenbasis of a random Hermitian matrix).
func withSpectrum(t *testing.T, r *rng.Stream, vals []float64) *Matrix {
	t.Helper()
	n := len(vals)
	u := mustEig(t, randHermitian(r, n)).Vectors
	d := NewMatrix(n, n)
	for i, v := range vals {
		d.Set(i, i, complex(v, 0))
	}
	return u.Mul(d).Mul(u.ConjTranspose())
}

type eigCase struct {
	name string
	a    *Matrix
}

// eigCases are the subspace solver's property-test inputs: random
// Hermitian matrices at n in {3, 8, 32}, and at the prototype subarray
// size 32 the spectra the frame kernel meets or must survive.
func eigCases(t *testing.T) []eigCase {
	r := rng.New(12)
	var cases []eigCase
	for _, n := range []int{3, 8, 32} {
		for i := 0; i < 5; i++ {
			cases = append(cases, eigCase{fmt.Sprintf("random-%d/%d", n, i), randHermitian(r, n)})
		}
	}
	// Five separated signal eigenvalues over a 27-wide near-degenerate
	// noise cluster: the shape of a frame covariance.
	vals := []float64{1000, 300, 80, 20, 6}
	for len(vals) < 32 {
		vals = append(vals, 1+1e-3*r.Norm())
	}
	cases = append(cases, eigCase{"signal-over-noise-cluster", withSpectrum(t, r, vals)})
	// An exactly repeated leading eigenvalue (and an exactly degenerate
	// noise floor): only re-orthogonalisation within the cluster keeps
	// the vectors apart.
	vals = []float64{50, 50, 20, 5}
	for len(vals) < 32 {
		vals = append(vals, 1)
	}
	cases = append(cases, eigCase{"repeated-leading", withSpectrum(t, r, vals)})
	// Rank one: a single source, every other eigenvalue exactly zero.
	v := make(Vector, 32)
	for i := range v {
		v[i] = complex(r.Norm(), r.Norm())
	}
	rank1 := NewMatrix(32, 32)
	rank1.AddOuter(v, v)
	return append(cases, eigCase{"rank-1", rank1})
}

// residualNorm returns ‖a·v − lam·v‖.
func residualNorm(a *Matrix, lam float64, v Vector) float64 {
	av := a.MulVec(v)
	var s float64
	for i := range av {
		d := av[i] - complex(lam, 0)*v[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

// orthoError returns max |vᵢᴴ·vⱼ − δᵢⱼ|.
func orthoError(vs []Vector) float64 {
	worst := 0.0
	for i := range vs {
		for j := range vs {
			want := complex128(0)
			if i == j {
				want = 1
			}
			worst = math.Max(worst, cmplx.Abs(vs[i].Dot(vs[j])-want))
		}
	}
	return worst
}

// eigPropC is the constant c of TestEigWorkspaceProperties' bounds; the
// worst case measured is 1.
const eigPropC = 4

// TestEigWorkspaceProperties checks the subspace solver on every
// eigCases input at full width (k = n, which covers every leading-k
// prefix, since a vector depends only on the eigenvalues ranked above
// it). With ε the unit roundoff and c = eigPropC:
//
//	|λᵢ − λᵢ(Jacobi)| ≤ c·n·ε·‖R‖_F
//	‖R·vᵢ − λᵢ·vᵢ‖   ≤ c·n·ε·‖R‖_F
//	‖VₖᴴVₖ − I‖_max  ≤ c·n·ε
//
// and the eigenvalues come out sorted descending.
func TestEigWorkspaceProperties(t *testing.T) {
	worst := map[string]float64{}
	for _, tc := range eigCases(t) {
		n := tc.a.Rows
		ref := mustEig(t, tc.a)
		ws := NewEigWorkspace(n)
		vals, err := ws.Eigenvalues(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		norm := tc.a.FrobeniusNorm()
		bound := eigPropC * float64(n) * eps
		for i, v := range vals {
			if i > 0 && v > vals[i-1] {
				t.Fatalf("%s: eigenvalues not descending at %d: %v", tc.name, i, vals)
			}
			d := math.Abs(v-ref.Values[i]) / norm
			worst["eigenvalue"] = math.Max(worst["eigenvalue"], d/(float64(n)*eps))
			if d > bound {
				t.Errorf("%s: eigenvalue %d = %g, Jacobi %g (|d|/‖R‖ = %g > %g)", tc.name, i, v, ref.Values[i], d, bound)
			}
		}
		vecs := ws.LeadingEigenvectors(n)
		for j, v := range vecs {
			res := residualNorm(tc.a, vals[j], v) / norm
			worst["residual"] = math.Max(worst["residual"], res/(float64(n)*eps))
			if res > bound {
				t.Errorf("%s: eigenpair %d residual %g·‖R‖ > %g", tc.name, j, res, bound)
			}
		}
		o := orthoError(vecs)
		worst["orthonormality"] = math.Max(worst["orthonormality"], o/(float64(n)*eps))
		if o > bound {
			t.Errorf("%s: orthonormality error %g > %g", tc.name, o, bound)
		}
	}
	t.Logf("worst error in units of n·ε (bound c = %g): %v", float64(eigPropC), worst)
}

// TestEigWorkspaceStateless pins purity: a decomposition depends only on
// its input, never on what the workspace decomposed before.
func TestEigWorkspaceStateless(t *testing.T) {
	r := rng.New(5)
	a, b := randHermitian(r, 32), randHermitian(r, 32)
	ws := NewEigWorkspace(32)
	run := func(m *Matrix) ([]float64, []Vector) {
		vals, err := ws.Eigenvalues(m)
		if err != nil {
			t.Fatal(err)
		}
		var vecs []Vector
		for _, v := range ws.LeadingEigenvectors(5) {
			vecs = append(vecs, append(Vector(nil), v...))
		}
		return append([]float64(nil), vals...), vecs
	}
	vals1, vecs1 := run(a)
	run(b)
	vals2, vecs2 := run(a)
	for i := range vals1 {
		if math.Float64bits(vals1[i]) != math.Float64bits(vals2[i]) {
			t.Fatalf("eigenvalue %d changed after another decomposition: %g vs %g", i, vals1[i], vals2[i])
		}
	}
	for j := range vecs1 {
		for i := range vecs1[j] {
			if vecs1[j][i] != vecs2[j][i] {
				t.Fatalf("eigenvector %d changed after another decomposition", j)
			}
		}
	}
}

// TestEigWorkspaceZeroMatrix: the zero matrix gives zero eigenvalues and
// the first k unit vectors — no NaN from the unit-norm scaling — as
// HermitianEig gives identity columns.
func TestEigWorkspaceZeroMatrix(t *testing.T) {
	ws := NewEigWorkspace(4)
	vals, err := ws.Eigenvalues(NewMatrix(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("eigenvalue %d = %g, want 0", i, v)
		}
	}
	for j, v := range ws.LeadingEigenvectors(3) {
		for i, x := range v {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if x != want {
				t.Fatalf("vector %d = %v, want unit vector %d", j, v, j)
			}
		}
	}
}

// TestEigWorkspaceRejects covers validation: a mismatched size, a
// rectangular or non-Hermitian input, and asking for vectors after a
// failed decomposition.
func TestEigWorkspaceRejects(t *testing.T) {
	ws := NewEigWorkspace(4)
	if _, err := ws.Eigenvalues(NewMatrix(5, 5)); err == nil {
		t.Fatal("size-mismatched matrix accepted")
	}
	if _, err := ws.Eigenvalues(NewMatrix(4, 3)); err != ErrNotHermitian {
		t.Fatalf("rectangular err = %v, want ErrNotHermitian", err)
	}
	bad := NewMatrix(4, 4)
	bad.Set(0, 1, 1)
	bad.Set(1, 0, 2)
	if _, err := ws.Eigenvalues(bad); err != ErrNotHermitian {
		t.Fatalf("err = %v, want ErrNotHermitian", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LeadingEigenvectors after a failed decomposition did not panic")
		}
	}()
	ws.LeadingEigenvectors(1)
}
