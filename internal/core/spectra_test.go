package core

import (
	"math"
	"testing"

	"wivi/internal/cmath"
	"wivi/internal/isar"
	"wivi/internal/sim"
)

// complementSpectrum is the MUSIC pseudospectrum (Eq. 5.3) from a
// signal-subspace basis, in isar's complement form: 1 / (n − Σ|eᴴu|²)
// per steering vector e, normalized to min 1.
func complementSpectrum(steer, signal []cmath.Vector) []float64 {
	out := make([]float64, len(steer))
	lo := math.Inf(1)
	for i, e := range steer {
		sig := 0.0
		for _, u := range signal {
			d := e.Dot(u)
			sig += real(d)*real(d) + imag(d)*imag(d)
		}
		out[i] = 1 / math.Max(float64(len(e))-sig, 1e-18)
		lo = math.Min(lo, out[i])
	}
	for i := range out {
		out[i] /= lo
	}
	return out
}

// TestSpectraMatchJacobiOnSimCaptures bounds the production spectra
// against a reference built on the full Jacobi decomposition
// (cmath.HermitianEig) on sim captures with 1, 2 and 3 walkers: every
// frame's signal dimension must match, and every Power sample must agree
// within 1e-8 relative (measured 1.5e-10). Noisy captures have no peak
// sharp enough for the complement form's cancellation to amplify the
// solvers' rounding the way the clean golden channel does (1.8e-7 there,
// isar's TestImageCloseToFromScratchChain).
func TestSpectraMatchJacobiOnSimCaptures(t *testing.T) {
	worst := 0.0
	for walkers := 1; walkers <= 3; walkers++ {
		dev, _ := newSimDevice(t, int64(20+walkers), func(sc *sim.Scene) {
			for k := 0; k < walkers; k++ {
				if _, err := sc.AddWalker(3); err != nil {
					t.Fatal(err)
				}
			}
		})
		img, tr, err := dev.Track(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := dev.Processor()
		cfg := p.Config()
		steer := make([]cmath.Vector, len(p.Thetas()))
		for i, th := range p.Thetas() {
			steer[i] = isar.SteeringVector(cfg.Subarray, cfg.Lambda, cfg.Delta(), th*math.Pi/180)
		}
		for _, spec := range p.FrameSpecs(tr.Samples()) {
			r, err := p.SmoothedCorrelation(tr.Combined[spec.Start : spec.Start+cfg.Window])
			if err != nil {
				t.Fatal(err)
			}
			eig, err := cmath.HermitianEig(r)
			if err != nil {
				t.Fatal(err)
			}
			dim := p.EstimateSignalDim(eig.Values)
			if got := img.SignalDim[spec.Index]; got != dim {
				t.Fatalf("%d walkers, frame %d: SignalDim %d, Jacobi reference %d", walkers, spec.Index, got, dim)
			}
			want := complementSpectrum(steer, eig.EigenvectorColumns(dim))
			for i, w := range want {
				rel := math.Abs(img.Power[spec.Index][i]-w) / w
				worst = math.Max(worst, rel)
				if rel > 1e-8 {
					t.Fatalf("%d walkers, frame %d Power[%d]: %g vs Jacobi %g (relative %g > 1e-8)",
						walkers, spec.Index, i, img.Power[spec.Index][i], w, rel)
				}
			}
		}
	}
	t.Logf("worst relative Power difference: %.2g", worst)
}
