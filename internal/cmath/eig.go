package cmath

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// Eig holds the full eigendecomposition of a Hermitian matrix: real
// eigenvalues and the corresponding orthonormal eigenvectors (columns of
// Vectors).
type Eig struct {
	// Values are the eigenvalues sorted in descending order.
	Values []float64
	// Vectors holds the eigenvectors as columns, in the same order as Values.
	Vectors *Matrix
}

// ErrNotHermitian is returned by the eigensolvers when the input matrix is
// not Hermitian within the verification tolerance.
var ErrNotHermitian = errors.New("cmath: matrix is not Hermitian")

// ErrNotFinite is returned by the eigensolvers when the input's Frobenius
// norm is not finite: the matrix holds a NaN or an infinity, or entries
// so large that the norm overflows. Such a matrix would pass the
// Hermitian check, whose tolerance scales with the norm, and leave the
// iteration spinning to its budget or returning meaningless eigenvalues.
var ErrNotFinite = errors.New("cmath: matrix norm is not finite")

// ErrNoConvergence is returned when an eigensolver's iteration fails to
// converge within its budget. This indicates a pathological input;
// well-conditioned Hermitian matrices converge in a handful of Jacobi
// sweeps or a few QL steps per eigenvalue.
var ErrNoConvergence = errors.New("cmath: eigendecomposition did not converge")

const (
	jacobiMaxSweeps = 64

	// eps is the float64 unit roundoff, 2^-52.
	eps = 0x1p-52
	// qlMaxIter bounds the implicit QL steps spent on one eigenvalue.
	qlMaxIter = 30
	// invIterSteps is the number of inverse-iteration solves per
	// eigenvector. The shift is an eigenvalue accurate to ~eps, so the
	// first solve already amplifies the wanted direction by ~1/eps; the
	// other two clean up (LAPACK dstein's two extra iterations).
	invIterSteps = 3
	// clusterGap groups eigenvalues of the unit-norm tridiagonal that lie
	// closer than this into one cluster, whose inverse-iteration vectors
	// are re-orthogonalised against each other (dstein's 1e-3·‖T‖).
	clusterGap = 1e-3
	// hermitianTol is how far, relative to its Frobenius norm, an input
	// may be from Hermitian before the eigensolvers refuse it.
	hermitianTol = 1e-9
)

// HermitianEig computes the full eigendecomposition of the Hermitian
// matrix a using cyclic complex Jacobi rotations. The input is not
// modified. Eigenvalues are returned in descending order with matching
// eigenvector columns; a matrix whose norm is not finite fails with
// ErrNotFinite.
//
// A sweep rotates a pair (p, q) only while its coupling is not
// negligible against its own diagonal pair,
//
//	|a_pq| > ε·sqrt(|a_pp·a_qq|) + ε²·‖A‖_F,
//
// and the iteration stops after a sweep that rotates nothing. The
// relative test keeps rotating the couplings of small diagonal entries,
// so small eigenvalues come out accurate to rounding relative to their
// own size, not only to ‖A‖_F (Demmel & Veselić's criterion; an
// absolute stop at a fraction of ‖A‖_F leaves them unrotated). The tiny
// absolute floor ends the sweeps over an exactly singular block, whose
// couplings would otherwise shrink towards underflow.
//
// It is the full-decomposition reference. The frame kernel runs the
// subspace solver (EigWorkspace), whose tests check it against
// HermitianEig; the benchmark's eig yardstick calls HermitianEig
// directly.
func HermitianEig(a *Matrix) (*Eig, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, ErrNotHermitian
	}
	// Hermitian check with a tolerance scaled by the matrix magnitude.
	scale := a.FrobeniusNorm()
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, ErrNotFinite
	}
	if scale == 0 {
		// Zero matrix: all eigenvalues zero, identity eigenvectors.
		return &Eig{Values: make([]float64, n), Vectors: Identity(n)}, nil
	}
	if !a.IsHermitian(hermitianTol * scale) {
		return nil, ErrNotHermitian
	}

	w := a.Clone()
	forceHermitian(w)
	v := Identity(n)
	floor := eps * eps * scale
	converged := false
	for sweep := 0; sweep < jacobiMaxSweeps && !converged; sweep++ {
		converged = true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				app, aqq := real(w.At(p, p)), real(w.At(q, q))
				if cmplx.Abs(w.At(p, q)) <= eps*math.Sqrt(math.Abs(app*aqq))+floor {
					continue
				}
				jacobiRotate(w, v, p, q)
				converged = false
			}
		}
	}
	if !converged {
		return nil, ErrNoConvergence
	}

	vals := make([]float64, n)
	for i := range vals {
		vals[i] = real(w.At(i, i))
	}
	// Sort descending, permuting eigenvector columns alongside. Insertion
	// sort: ties break deterministically (stable on original column order).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		j, key := i, idx[i]
		for j > 0 && vals[idx[j-1]] < vals[key] {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = key
	}
	e := &Eig{Values: make([]float64, n), Vectors: NewMatrix(n, n)}
	for newCol, oldCol := range idx {
		e.Values[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			e.Vectors.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return e, nil
}

// forceHermitian replaces w with (w + wᴴ)/2 element by element: real
// diagonal, conjugate-paired off-diagonals. Idempotent, and exact on an
// already-Hermitian matrix. Each component is halved by ×0.5, which is
// exact: dividing by the complex 2 gives the same values (up to the sign
// of a zero) at the cost of a runtime complex division per pair.
//
//wivi:hotpath
func forceHermitian(w *Matrix) {
	n, a := w.Rows, w.Data
	for i := 0; i < n; i++ {
		a[i*n+i] = complex(real(a[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			x, y := a[i*n+j], a[j*n+i]
			re, im := (real(x)+real(y))*0.5, (imag(x)-imag(y))*0.5
			a[i*n+j] = complex(re, im)
			a[j*n+i] = complex(re, -im)
		}
	}
}

// jacobiRotate applies one two-sided unitary Jacobi rotation zeroing the
// (p,q) element of the Hermitian working matrix w, accumulating the rotation
// into v.
//
//wivi:hotpath
func jacobiRotate(w, v *Matrix, p, q int) {
	apq := w.At(p, q)
	r := cmplx.Abs(apq)
	if r == 0 {
		return
	}
	app := real(w.At(p, p))
	aqq := real(w.At(q, q))
	// Phase of the off-diagonal element.
	phase := apq / complex(r, 0) // e^{i phi}
	phaseConj := cmplx.Conj(phase)

	// Choose rotation angle: the annihilation condition for this rotation
	// convention is t^2 - 2*tau*t - 1 = 0 with tau = (aqq - app) / (2r).
	// Take the smaller-magnitude root, written in its numerically stable
	// reciprocal form.
	tau := (aqq - app) / (2 * r)
	var t float64
	if tau >= 0 {
		t = -1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = 1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	cc := complex(c, 0)
	sc := complex(s, 0)

	n := w.Rows
	// Right multiplication: W <- W * G.
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, cc*wip+sc*phaseConj*wiq)
		w.Set(i, q, -sc*phase*wip+cc*wiq)
	}
	// Left multiplication: W <- G^H * W.
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, cc*wpj+sc*phase*wqj)
		w.Set(q, j, -sc*phaseConj*wpj+cc*wqj)
	}
	// Clean the rotated pivot pair: the math guarantees these are real /
	// zero; enforce it to stop rounding error from accumulating.
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	w.Set(p, p, complex(real(w.At(p, p)), 0))
	w.Set(q, q, complex(real(w.At(q, q)), 0))

	// Accumulate eigenvectors: V <- V * G.
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, cc*vip+sc*phaseConj*viq)
		v.Set(i, q, -sc*phase*vip+cc*viq)
	}
}

// EigenvectorColumns returns the first k eigenvector columns of e as
// vectors. It panics if k exceeds the decomposition size.
func (e *Eig) EigenvectorColumns(k int) []Vector {
	out := make([]Vector, k)
	for j := 0; j < k; j++ {
		out[j] = e.Vectors.Col(j)
	}
	return out
}

// EigWorkspace is the frame kernel's eigensolver: every eigenvalue of a
// Hermitian matrix, then eigenvectors for only the few leading ones — the
// signal subspace that complement-form MUSIC reads. It has the shape of
// LAPACK's zheevr, in two calls on one workspace:
//
//   - Eigenvalues scales the matrix to unit Frobenius norm, reduces it to
//     a real symmetric tridiagonal T = Qᴴ·A·Q with Householder reflectors,
//     and finds all of T's eigenvalues by implicit-shift QL.
//   - LeadingEigenvectors finds T's eigenvectors for the k largest
//     eigenvalues by inverse iteration, re-orthogonalised within
//     eigenvalue clusters, and maps them back through the reflectors.
//
// Nothing carries over from one matrix to the next, so every
// decomposition is a pure function of its input. A workspace is bound to
// one matrix size, keeps its buffers in a few flat slices, and must not
// be shared between concurrent calls.
type EigWorkspace struct {
	n int
	// a is the working copy of the input. The reduction leaves reflector
	// k's vector in row k, columns k+1..n-1, and its scalar in tau[k].
	a   Matrix
	tau []complex128
	tmp []complex128
	// d and e are T's diagonal and off-diagonal (e[k] couples k and k+1).
	d, e []float64
	// qd holds T's eigenvalues sorted descending (qe holds e squared for
	// QL, which destroys it); vals is qd in the input's units, the slice
	// Eigenvalues returns.
	qd, qe, vals []float64
	// dl, dd, du, du2 and swap hold the pivoted LU factors of T − λI, with
	// U's diagonal stored as its reciprocals in dd.
	dl, dd, du, du2 []float64
	swap            []bool
	// z holds T's eigenvectors, row j for eigenvalue j; vecs are the
	// input's eigenvectors, rows of one flat buffer.
	z    []float64
	vecs []Vector
	// zero marks the zero matrix; ready marks that Eigenvalues succeeded
	// on the current matrix.
	zero, ready bool
}

// NewEigWorkspace returns a workspace for n x n decompositions.
func NewEigWorkspace(n int) *EigWorkspace {
	c := make([]complex128, 2*n*n+2*n)
	f := make([]float64, n*n+9*n)
	cut := func(k int) []float64 {
		s := f[:k:k]
		f = f[k:]
		return s
	}
	ws := &EigWorkspace{
		n:    n,
		a:    Matrix{Rows: n, Cols: n, Data: c[: n*n : n*n]},
		tau:  c[n*n : n*n+n : n*n+n],
		tmp:  c[n*n+n : n*n+2*n : n*n+2*n],
		z:    cut(n * n),
		swap: make([]bool, n),
		vecs: make([]Vector, n),
	}
	out := c[n*n+2*n:]
	for j := range ws.vecs {
		ws.vecs[j] = out[j*n : (j+1)*n : (j+1)*n]
	}
	for _, s := range []*[]float64{&ws.d, &ws.e, &ws.qd, &ws.qe, &ws.vals, &ws.dl, &ws.dd, &ws.du, &ws.du2} {
		*s = cut(n)
	}
	return ws
}

// Eigenvalues returns every eigenvalue of the Hermitian matrix a in
// descending order, and prepares LeadingEigenvectors for the same
// matrix. The returned slice aliases the workspace and is valid until its
// next use; a is not modified. The zero matrix has all-zero eigenvalues;
// a matrix whose norm is not finite fails with ErrNotFinite.
//
//wivi:hotpath
func (ws *EigWorkspace) Eigenvalues(a *Matrix) ([]float64, error) {
	n := ws.n
	ws.ready = false
	if a.Rows != a.Cols {
		return nil, ErrNotHermitian
	}
	if a.Rows != n {
		return nil, fmt.Errorf("cmath: eig workspace for %dx%d used on %dx%d matrix", n, n, a.Rows, a.Cols)
	}
	scale := a.FrobeniusNorm()
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, ErrNotFinite
	}
	ws.zero = scale == 0
	if ws.zero {
		clear(ws.vals)
		ws.ready = true
		return ws.vals, nil
	}
	// One pass over the upper triangle scales each entry and its mirror
	// to unit Frobenius norm, where every tolerance below is absolute
	// (eps·‖T‖ is eps), checks the pair Hermitian within hermitianTol,
	// and writes its Hermitian part, as forceHermitian does, to the
	// upper triangle only: the reduction never reads the lower one. The
	// check squares the scaled difference, which is at most 2 in
	// magnitude, so no over- or underflow can change its answer.
	inv := 1 / scale
	src, w := a.Data, ws.a.Data
	for i := 0; i < n; i++ {
		re, im := real(src[i*n+i])*inv, imag(src[i*n+i])*inv
		if im*im > hermitianTol*hermitianTol {
			return nil, ErrNotHermitian
		}
		w[i*n+i] = complex(re, 0)
		for j := i + 1; j < n; j++ {
			x, y := src[i*n+j], src[j*n+i]
			xr, xi := real(x)*inv, imag(x)*inv
			yr, yi := real(y)*inv, imag(y)*inv
			dr, di := xr-yr, xi+yi
			if dr*dr+di*di > hermitianTol*hermitianTol {
				return nil, ErrNotHermitian
			}
			w[i*n+j] = complex((xr+yr)*0.5, (xi-yi)*0.5)
		}
	}
	ws.tridiagonalize()
	copy(ws.qd, ws.d)
	for i, x := range ws.e {
		ws.qe[i] = x * x
	}
	if err := tridiagEigenvalues(ws.qd, ws.qe); err != nil {
		return nil, err
	}
	// Insertion sort, descending: n is small and the kernel must not
	// allocate.
	qd := ws.qd
	for i := 1; i < n; i++ {
		j, key := i, qd[i]
		for j > 0 && qd[j-1] < key {
			qd[j] = qd[j-1]
			j--
		}
		qd[j] = key
	}
	for i, v := range qd {
		ws.vals[i] = v * scale
	}
	ws.ready = true
	return ws.vals, nil
}

// LeadingEigenvectors returns orthonormal eigenvectors for the k largest
// eigenvalues of the matrix the last Eigenvalues call decomposed, in the
// same order. The vectors alias the workspace and are valid until its
// next use. For the zero matrix they are the first k unit vectors. It
// panics unless Eigenvalues just succeeded and 0 <= k <= n.
//
//wivi:hotpath
func (ws *EigWorkspace) LeadingEigenvectors(k int) []Vector {
	n := ws.n
	if !ws.ready || k < 0 || k > n {
		panic(fmt.Sprintf("cmath: LeadingEigenvectors(%d) on a %dx%d workspace (ready=%v)", k, n, n, ws.ready))
	}
	out := ws.vecs[:k]
	if ws.zero {
		for j, y := range out {
			clear(y)
			y[j] = 1
		}
		return out
	}
	start := 0 // first eigenvalue of the current cluster
	for j := 0; j < k; j++ {
		if j > 0 && ws.qd[j-1]-ws.qd[j] > clusterGap {
			start = j
		}
		ws.inverseIteration(ws.qd[j], uint64(j), ws.z[j*n:(j+1)*n], ws.z[start*n:j*n])
	}
	ws.backTransform(out)
	return out
}

// tridiagonalize reduces the Hermitian working matrix to the real
// symmetric tridiagonal T = Qᴴ·A·Q, Q = H_0·H_1·…·H_{n-2} (LAPACK zhetd2
// with zlarfg's reflectors). Reflector H_k = I − τ_k·v·vᴴ acts on indices
// k+1..n-1 and zeroes column k below its subdiagonal. τ_k is complex so
// that the surviving subdiagonal entry β_k comes out real: the diagonal
// phase scaling that turns a Hermitian tridiagonal into a real one is
// folded into the reflectors. v (v[0] = 1) is stored in row k, columns
// k+1..n-1, which the reduction no longer reads.
//
// The reduction reads and writes only the upper triangle (zhetd2's
// UPLO = 'U' storage, in row-major form): the lower triangle of the
// working copy is never read, so it is not kept up to date.
//
//wivi:hotpath
func (ws *EigWorkspace) tridiagonalize() {
	n, a := ws.n, ws.a.Data
	for k := 0; k < n-1; k++ {
		row := a[k*n : (k+1)*n]
		ws.d[k] = real(row[k])
		// Column k below the diagonal is the conjugate of row k right of
		// it: x = (alpha, x[1:]).
		alpha := cmplx.Conj(row[k+1])
		var xnorm2 float64
		for _, x := range row[k+2:] {
			xnorm2 += real(x)*real(x) + imag(x)*imag(x)
		}
		if xnorm2 == 0 && imag(alpha) == 0 {
			// Already reduced and real: H_k = I.
			ws.tau[k] = 0
			ws.e[k] = real(alpha)
			continue
		}
		beta := -math.Copysign(math.Sqrt(real(alpha)*real(alpha)+imag(alpha)*imag(alpha)+xnorm2), real(alpha))
		tau := complex((beta-real(alpha))/beta, -imag(alpha)/beta)
		ws.tau[k] = tau
		ws.e[k] = beta
		v := row[k+1:]
		s := 1 / (alpha - complex(beta, 0))
		v[0] = 1
		for j := 1; j < len(v); j++ {
			v[j] = cmplx.Conj(v[j]) * s
		}

		// Two-sided update of the trailing block B = A[k+1:, k+1:]:
		// H_kᴴ·B·H_k = B − v·wᴴ − w·vᴴ with p = τ·B·v and
		// w = p − ½·τ·(pᴴ·v)·v. B·v is a Hermitian product over the upper
		// triangle (zhemv): row i's entries right of the diagonal serve
		// both y[i] (as B[i][j]) and y[j] (as B[j][i] = conj(B[i][j])).
		m := len(v)
		w := ws.tmp[:m]
		clear(w)
		for i := 0; i < m; i++ {
			bi := a[(k+1+i)*n+k+1+i : (k+2+i)*n]
			vi := v[i]
			acc := complex(real(bi[0])*real(vi), real(bi[0])*imag(vi))
			bu, vu, wu := bi[1:], v[i+1:], w[i+1:]
			vu, wu = vu[:len(bu)], wu[:len(bu)]
			for j, b := range bu {
				acc += b * vu[j]
				wu[j] += cmplx.Conj(b) * vi
			}
			w[i] += acc
		}
		var pv complex128
		for i, y := range w {
			w[i] = tau * y
			pv += cmplx.Conj(w[i]) * v[i]
		}
		c := -0.5 * tau * pv
		for i := range w {
			w[i] += c * v[i]
		}
		for i := 0; i < m; i++ {
			bi := a[(k+1+i)*n+k+1+i : (k+2+i)*n]
			vi, wi := v[i], w[i]
			bi[0] = complex(real(bi[0])-2*real(vi*cmplx.Conj(wi)), 0)
			bu, vu, wu := bi[1:], v[i+1:], w[i+1:]
			vu, wu = vu[:len(bu)], wu[:len(bu)]
			for j := range bu {
				bu[j] = bu[j] - vi*cmplx.Conj(wu[j]) - wi*cmplx.Conj(vu[j])
			}
		}
	}
	ws.d[n-1] = real(a[n*n-1])
}

// tridiagEigenvalues overwrites d with the eigenvalues (unordered) of the
// symmetric tridiagonal matrix with diagonal d and squared off-diagonal
// e2 (e2[i] = e[i]² for the coupling of i and i+1; e2[n-1] is scratch),
// destroying e2. It is root-free QL (Pal, Walker and Kahan; LAPACK
// dsterf): the eigenvalues depend on the couplings only through their
// squares, and the rotations of implicit-shift QL with Wilkinson shifts
// can be carried through in c², s² and e², which takes two square roots
// per QL step (for the shift) and none per rotation. The matrix must
// have unit norm: a coupling counts as zero when it is small next to its
// two diagonal entries or below eps·‖T‖ (the test on e squared), and
// qlMaxIter bounds the steps spent on one eigenvalue.
//
// Unit norm also rules out overflow and harmful underflow. QL keeps T
// orthogonally similar to itself, so every d, e² and γ stays O(1), and a
// step runs only while its leading coupling exceeds eps, which keeps
// the shift's |g| below 1/eps and g*g + 1 finite. Within a step, every
// e2[i] it reads exceeds eps² > 0, so r = p + e2[i] never vanishes; p
// can underflow to zero (making c zero), and then the next p is taken
// from the previous c as dsterf does.
//
//wivi:hotpath
func tridiagEigenvalues(d, e2 []float64) error {
	n := len(d)
	e2[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find the first negligible coupling at or after l: small next
			// to its two diagonal entries, or below eps·‖T‖ (both tests
			// squared).
			m := l
			for ; m < n-1; m++ {
				t := math.Abs(d[m]) + math.Abs(d[m+1])
				if x := e2[m]; x <= eps*eps*t*t || x <= eps*eps {
					break
				}
			}
			if m == l {
				break
			}
			if iter == qlMaxIter {
				return ErrNoConvergence
			}
			// Wilkinson shift from the leading 2×2 block.
			rte := math.Sqrt(e2[l])
			g := (d[l+1] - d[l]) / (2 * rte)
			sigma := d[l] - rte/(g+math.Copysign(math.Sqrt(g*g+1), g))
			// The rotations, bottom up. s starts at 0, so the first one
			// writes e2[m] = 0: the coupling found negligible is dropped.
			c, s := 1.0, 0.0
			gamma := d[m] - sigma
			p := gamma * gamma
			for i := m - 1; i >= l; i-- {
				bb := e2[i]
				r := p + bb
				e2[i+1] = s * r
				oldc := c
				c = p / r
				s = bb / r
				oldgam := gamma
				alpha := d[i]
				gamma = c*(alpha-sigma) - s*oldgam
				d[i+1] = oldgam + (alpha - gamma)
				if c != 0 {
					p = gamma * gamma / c
				} else {
					p = oldc * bb
				}
			}
			e2[l] = s * p
			d[l] = sigma + gamma
		}
	}
	return nil
}

// inverseIteration finds the unit eigenvector z of T for its eigenvalue
// lam: invIterSteps solves of (T − lam·I)·z = b from a deterministic
// pseudo-random start (seeded by the eigenvalue's rank), each followed by
// modified Gram–Schmidt against the earlier vectors of lam's cluster
// (consecutive rows of cluster), so that close or repeated eigenvalues
// still get orthonormal vectors.
//
//wivi:hotpath
func (ws *EigWorkspace) inverseIteration(lam float64, seed uint64, z, cluster []float64) {
	n := ws.n
	ws.factorShifted(lam)
	x := (seed + 1) * 0x9E3779B97F4A7C15
	for i := range z {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		z[i] = float64(x>>11)/(1<<52) - 1
	}
	for it := 0; it < invIterSteps; it++ {
		normalize(z)
		ws.solveShifted(z)
		for q := 0; q < len(cluster); q += n {
			u := cluster[q : q+n]
			var dot float64
			for i, ui := range u {
				dot += ui * z[i]
			}
			for i, ui := range u {
				z[i] -= dot * ui
			}
		}
	}
	normalize(z)
}

// normalize scales z to unit Euclidean norm.
//
//wivi:hotpath
func normalize(z []float64) {
	var s float64
	for _, v := range z {
		s += v * v
	}
	inv := 1 / math.Sqrt(s)
	for i := range z {
		z[i] *= inv
	}
}

// factorShifted LU-factors T − lam·I with partial pivoting (LAPACK
// dgttrf): unit lower multipliers in dl, U's two superdiagonals in du and
// du2 and the reciprocals of its diagonal in dd, and swap[i] marks an
// interchange of rows i and i+1. Inverse iteration factors an almost
// singular matrix by design, so pivots below eps·‖T‖ are lifted to ±eps
// (LAPACK dlagts's perturbation), which keeps every solve finite. Storing
// reciprocal pivots costs n divisions once per eigenvalue and spares
// solveShifted n divisions per solve.
//
//wivi:hotpath
func (ws *EigWorkspace) factorShifted(lam float64) {
	n := ws.n
	dl, dd, du, du2 := ws.dl, ws.dd, ws.du, ws.du2
	for i := range dd {
		dd[i] = ws.d[i] - lam
	}
	copy(dl, ws.e)
	copy(du, ws.e)
	for i := 0; i < n-1; i++ {
		du2[i] = 0
		ws.swap[i] = math.Abs(dd[i]) < math.Abs(dl[i])
		if !ws.swap[i] {
			if dd[i] != 0 {
				f := dl[i] / dd[i]
				dl[i] = f
				dd[i+1] -= f * du[i]
			}
			continue
		}
		f := dd[i] / dl[i]
		dd[i] = dl[i]
		dl[i] = f
		du[i], dd[i+1] = dd[i+1], du[i]-f*dd[i+1]
		if i < n-2 {
			du2[i] = du[i+1]
			du[i+1] = -f * du[i+1]
		}
	}
	for i, v := range dd {
		if math.Abs(v) < eps {
			v = math.Copysign(eps, v)
		}
		dd[i] = 1 / v
	}
}

// solveShifted overwrites b with (T − lam·I)⁻¹·b from factorShifted's
// factors (LAPACK dgtts2, multiplying by the reciprocal pivots).
//
//wivi:hotpath
func (ws *EigWorkspace) solveShifted(b []float64) {
	n := ws.n
	dl, dd, du, du2 := ws.dl, ws.dd, ws.du, ws.du2
	for i := 0; i < n-1; i++ {
		if ws.swap[i] {
			b[i], b[i+1] = b[i+1], b[i]-dl[i]*b[i+1]
		} else {
			b[i+1] -= dl[i] * b[i]
		}
	}
	b[n-1] *= dd[n-1]
	if n > 1 {
		b[n-2] = (b[n-2] - du[n-2]*b[n-1]) * dd[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		b[i] = (b[i] - du[i]*b[i+1] - du2[i]*b[i+2]) * dd[i]
	}
}

// backTransform maps the eigenvectors z_j of T in the first len(out) rows
// of ws.z to the eigenvectors out[j] = Q·z_j of the input. Each reflector,
// innermost first, is applied to every vector before the next, two
// vectors at a time, so one pass over the reflector's vector serves two
// dot products and two updates. Each vector sees the same operations in
// the same order as it would alone.
//
//wivi:hotpath
func (ws *EigWorkspace) backTransform(out []Vector) {
	n, a := ws.n, ws.a.Data
	for j, y := range out {
		for i, zi := range ws.z[j*n : (j+1)*n] {
			y[i] = complex(zi, 0)
		}
	}
	for k := n - 2; k >= 0; k-- {
		tau := ws.tau[k]
		if tau == 0 {
			continue
		}
		v := a[k*n+k+1 : (k+1)*n]
		j := 0
		for ; j+1 < len(out); j += 2 {
			y0, y1 := out[j][k+1:], out[j+1][k+1:]
			y0, y1 = y0[:len(v)], y1[:len(v)]
			var s0, s1 complex128
			for i, vi := range v {
				cv := cmplx.Conj(vi)
				s0 += cv * y0[i]
				s1 += cv * y1[i]
			}
			s0 *= tau
			s1 *= tau
			for i, vi := range v {
				y0[i] -= s0 * vi
				y1[i] -= s1 * vi
			}
		}
		if j < len(out) {
			y := out[j][k+1:]
			y = y[:len(v)]
			var s complex128
			for i, vi := range v {
				s += cmplx.Conj(vi) * y[i]
			}
			s *= tau
			for i, vi := range v {
				y[i] -= s * vi
			}
		}
	}
}
