package cmath_test

// The eigensolvers on the covariances the frame kernel actually sees:
// every analysis window of sim captures, at prototype geometry (32x32).

import (
	"math"
	"math/cmplx"
	"testing"

	"wivi/internal/cmath"
	"wivi/internal/core"
	"wivi/internal/sim"
)

// simCovariances returns the smoothed covariance of every analysis
// window of 2 s sim captures with 1, 2 and 3 walkers, with each frame's
// signal dimension as the production chain estimates it.
func simCovariances(tb testing.TB) ([]*cmath.Matrix, []int) {
	tb.Helper()
	var covs []*cmath.Matrix
	var dims []int
	for walkers := 1; walkers <= 3; walkers++ {
		sc := sim.NewScene(sim.SceneConfig{Seed: int64(walkers)})
		for k := 0; k < walkers; k++ {
			if _, err := sc.AddWalker(3); err != nil {
				tb.Fatal(err)
			}
		}
		fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: int64(walkers)})
		if err != nil {
			tb.Fatal(err)
		}
		dev, err := core.New(fe, core.DefaultConfig(fe))
		if err != nil {
			tb.Fatal(err)
		}
		img, tr, err := dev.Track(0, 2)
		if err != nil {
			tb.Fatal(err)
		}
		p := dev.Processor()
		w := p.Config().Window
		for _, spec := range p.FrameSpecs(tr.Samples()) {
			r, err := p.SmoothedCorrelation(tr.Combined[spec.Start : spec.Start+w])
			if err != nil {
				tb.Fatal(err)
			}
			covs = append(covs, r)
			dims = append(dims, img.SignalDim[spec.Index])
		}
	}
	return covs, dims
}

// TestEigWorkspaceOnSimCovariances holds the subspace solver to the same
// bounds as TestEigWorkspaceProperties (c·n·ε·‖R‖_F with c = 4) on real
// frame covariances: eigenvalues against the Jacobi reference, and the
// residual and orthonormality of the signal vectors the kernel uses.
func TestEigWorkspaceOnSimCovariances(t *testing.T) {
	covs, dims := simCovariances(t)
	n := covs[0].Rows
	bound := 4 * float64(n) * 0x1p-52
	ws := cmath.NewEigWorkspace(n)
	var worstVal, worstRes, worstOrth float64
	for f, r := range covs {
		ref, err := cmath.HermitianEig(r)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := ws.Eigenvalues(r)
		if err != nil {
			t.Fatal(err)
		}
		norm := r.FrobeniusNorm()
		for i, v := range vals {
			worstVal = math.Max(worstVal, math.Abs(v-ref.Values[i])/norm)
		}
		vecs := ws.LeadingEigenvectors(dims[f])
		for j, v := range vecs {
			av := r.MulVec(v)
			var s float64
			for i := range av {
				d := av[i] - complex(vals[j], 0)*v[i]
				s += real(d)*real(d) + imag(d)*imag(d)
			}
			worstRes = math.Max(worstRes, math.Sqrt(s)/norm)
			for i := range vecs {
				want := complex128(0)
				if i == j {
					want = 1
				}
				worstOrth = math.Max(worstOrth, cmplx.Abs(vecs[i].Dot(v)-want))
			}
		}
	}
	t.Logf("%d frames: worst eigenvalue error %.2g·‖R‖, residual %.2g·‖R‖, orthonormality %.2g (bound %.2g)",
		len(covs), worstVal, worstRes, worstOrth, bound)
	if worstVal > bound || worstRes > bound || worstOrth > bound {
		t.Fatalf("subspace solver outside c·n·ε on sim covariances")
	}
}

// BenchmarkHermitianEig runs both eigensolvers on the same sim-derived
// 32x32 covariances, one frame per op: cold Jacobi (the full
// decomposition, HermitianEig) against the frame kernel's solver (every
// eigenvalue plus the frame's SignalDim leading eigenvectors).
func BenchmarkHermitianEig(b *testing.B) {
	covs, dims := simCovariances(b)
	b.Run("jacobi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cmath.HermitianEig(covs[i%len(covs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tridiagonal", func(b *testing.B) {
		ws := cmath.NewEigWorkspace(covs[0].Rows)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := i % len(covs)
			if _, err := ws.Eigenvalues(covs[f]); err != nil {
				b.Fatal(err)
			}
			ws.LeadingEigenvectors(dims[f])
		}
	})
}
