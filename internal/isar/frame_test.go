package isar

import (
	"context"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"wivi/internal/cmath"
	"wivi/internal/rng"
)

// directCorrelation is the smoothed correlation as the plain mean of
// subarray outer products: the O(L·w'^2) definition the Hankel recursion
// replaces, kept here as its reference.
func directCorrelation(window []complex128, w int) *cmath.Matrix {
	r := cmath.NewMatrix(w, w)
	count := 0
	for start := 0; start+w <= len(window); start++ {
		r.AddOuter(window[start:start+w], window[start:start+w])
		count++
	}
	return r.ScaleInPlace(complex(1/float64(count), 0))
}

// TestHankelCovarianceMatchesDirectSum checks the covariance recursion
// against the direct sum on every frame of a noisy two-mover channel, at
// subarray sizes 3, 32 and Window (one subarray) and at a hop longer
// than Window - Subarray (consecutive windows share no subarray, which
// a stateless kernel must not care about). The bound is w'·eps·‖R‖_F
// per entry, the rounding of a w'-step recursion; the result must also
// be exactly Hermitian with a real diagonal.
func TestHankelCovarianceMatchesDirectSum(t *testing.T) {
	geometries := []struct{ window, subarray, hop int }{
		{100, 3, 25},
		{100, 32, 25},
		{100, 100, 25},
		{64, 24, 48}, // Hop 48 > Window - Subarray = 40
	}
	noise := rng.New(3)
	for _, g := range geometries {
		cfg := DefaultConfig()
		cfg.Window, cfg.Subarray, cfg.Hop = g.window, g.subarray, g.hop
		cfg.MaxSources = 2 // must stay below the smallest Subarray
		p, err := NewProcessor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := goldenChannel(cfg, cfg.Window+20*cfg.Hop)
		for i := range h {
			h[i] += noise.ComplexGaussian(0.01)
		}
		worst := 0.0
		for _, spec := range p.FrameSpecs(len(h)) {
			window := h[spec.Start : spec.Start+cfg.Window]
			got, err := p.SmoothedCorrelation(window)
			if err != nil {
				t.Fatal(err)
			}
			want := directCorrelation(window, cfg.Subarray)
			scale := want.FrobeniusNorm()
			w := cfg.Subarray
			for i := 0; i < w; i++ {
				if imag(got.At(i, i)) != 0 {
					t.Fatalf("%+v frame %d: diagonal %d not real: %v", g, spec.Index, i, got.At(i, i))
				}
				for j := 0; j < w; j++ {
					if got.At(j, i) != cmplx.Conj(got.At(i, j)) {
						t.Fatalf("%+v frame %d: not exactly Hermitian at (%d,%d)", g, spec.Index, i, j)
					}
					rel := cmplx.Abs(got.At(i, j)-want.At(i, j)) / scale
					worst = math.Max(worst, rel)
					if rel > float64(w)*0x1p-52 {
						t.Fatalf("%+v frame %d: entry (%d,%d) off by %g·‖R‖ > w'·eps", g, spec.Index, i, j, rel)
					}
				}
			}
		}
		t.Logf("%+v: worst entry error %.2g·‖R‖_F", g, worst)
	}
}

// TestImageFramesMatchProcessFrame: the pooled-workspace frames of the
// batch chain (fanned out over several workers) are bit-identical to
// ProcessFrame, the kernel's allocating form, in both MUSIC and beamform
// mode — one kernel, whatever workspace it runs in.
func TestImageFramesMatchProcessFrame(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 400)
	specs := p.FrameSpecs(len(h))
	for _, music := range []bool{true, false} {
		frames, err := p.computeFrames(context.Background(), h, specs, music, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			want, err := p.ProcessFrame(h, spec, music)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(frames[spec.Index], want) {
				t.Fatalf("music=%v frame %d differs from ProcessFrame", music, spec.Index)
			}
		}
	}
}

// referenceFrame computes one frame from the reference implementations:
// the covariance as the direct sum, the full Jacobi eigendecomposition
// (cmath.HermitianEig), and the complement-form pseudospectrum from its
// leading SignalDim columns.
func referenceFrame(t *testing.T, p *Processor, window []complex128) (power, bartlett []float64, dim int) {
	t.Helper()
	r := directCorrelation(window, p.cfg.Subarray)
	eig, err := cmath.HermitianEig(r)
	if err != nil {
		t.Fatal(err)
	}
	dim = p.EstimateSignalDim(eig.Values)
	power = make([]float64, len(p.thetasDeg))
	p.musicSpectrumComplementInto(eig.EigenvectorColumns(dim), power)
	return power, p.BartlettSpectrum(r), dim
}

// TestImageCloseToFromScratchChain bounds the production image against
// the reference chain (referenceFrame) on the clean golden channel:
// every frame's signal dimension must match, and the spectra must agree
// within the golden fixture's 1e-6. The Power bound is 1e-6 relative
// (measured 1.8e-7): the two solvers' signal vectors agree to rounding,
// but the complement-form denominator (n - sig, see
// musicSpectrumComplementInto) cancels near the sharp peaks of this
// noise-free scene and amplifies the difference; on noisy sim captures
// the same comparison measures ~1e-10 (internal/core
// TestSpectraMatchJacobiOnSimCaptures). Bartlett sees only the
// covariance recursion's reordering: 1e-12 (measured 2.5e-15).
func TestImageCloseToFromScratchChain(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 512)
	got, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	var worstP, worstB float64
	for _, spec := range p.FrameSpecs(len(h)) {
		power, bartlett, dim := referenceFrame(t, p, h[spec.Start:spec.Start+cfg.Window])
		if got.SignalDim[spec.Index] != dim {
			t.Fatalf("frame %d: SignalDim %d, reference %d", spec.Index, got.SignalDim[spec.Index], dim)
		}
		for i := range power {
			rel := math.Abs(got.Power[spec.Index][i]-power[i]) / power[i]
			worstP = math.Max(worstP, rel)
			if rel > 1e-6 {
				t.Fatalf("frame %d Power[%d]: relative drift %g > 1e-6", spec.Index, i, rel)
			}
		}
		for i := range bartlett {
			rel := math.Abs(got.Bartlett[spec.Index][i]-bartlett[i]) / math.Max(bartlett[i], 1e-300)
			worstB = math.Max(worstB, rel)
			if rel > 1e-12 {
				t.Fatalf("frame %d Bartlett[%d]: relative drift %g > 1e-12", spec.Index, i, rel)
			}
		}
	}
	t.Logf("worst relative drift: Power %.2g, Bartlett %.2g", worstP, worstB)
}

// BenchmarkProcessFrame times the frame kernel at prototype geometry
// with a pooled workspace, as the batch and stream chains run it (run
// with -benchmem: 2 allocs/op, the emitted spectra).
func BenchmarkProcessFrame(b *testing.B) {
	cfg := DefaultConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := goldenChannel(cfg, cfg.Window+1024*cfg.Hop)
	specs := p.FrameSpecs(len(h))
	sc := p.newFrameScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		if _, err := p.processFrame(h[spec.Start:spec.Start+cfg.Window], spec, true, sc); err != nil {
			b.Fatal(err)
		}
	}
}
