package isar

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"strings"
	"testing"

	"wivi/internal/cmath"
	"wivi/internal/nulling"
	"wivi/internal/ofdm"
	"wivi/internal/rng"
	"wivi/internal/sim"
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
// frame scheduler (the whole capture in one Append, fanned out over
// several workers, as a batch image runs it) are bit-identical to
// ProcessFrame, the kernel's allocating form — one kernel, whatever
// workspace it runs in.
func TestImageFramesMatchProcessFrame(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 400)
	frames, err := streamFrames(t, p, h, len(h), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range p.FrameSpecs(len(h)) {
		want, err := p.ProcessFrame(h, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(frames[spec.Index], want) {
			t.Fatalf("frame %d differs from ProcessFrame", spec.Index)
		}
	}
}

// dotComplementSpectrum is the complement-form MUSIC pseudospectrum by
// per-angle dot products, 1 / (n − Σ_k |eᴴu_k|²) normalized to min 1:
// the direct form musicSpectrumComplementInto's diagonal sums replace,
// kept here as its reference.
func dotComplementSpectrum(p *Processor, signal []cmath.Vector) []float64 {
	n := float64(p.cfg.Subarray)
	out := make([]float64, len(p.steerSub))
	for ti, steer := range p.steerSub {
		var sig float64
		for _, u := range signal {
			d := steer.Dot(u)
			sig += real(d)*real(d) + imag(d)*imag(d)
		}
		out[ti] = 1 / math.Max(n-sig, 1e-18)
	}
	normalizeMin1(out)
	return out
}

// referenceFrame computes one frame from the reference implementations:
// the covariance as the direct sum, the full Jacobi eigendecomposition
// (cmath.HermitianEig), and the dot-product complement spectrum from its
// leading SignalDim columns.
func referenceFrame(t *testing.T, p *Processor, window []complex128) (power, bartlett []float64, dim int) {
	t.Helper()
	r := directCorrelation(window, p.cfg.Subarray)
	eig, err := cmath.HermitianEig(r)
	if err != nil {
		t.Fatal(err)
	}
	dim = p.EstimateSignalDim(eig.Values)
	return dotComplementSpectrum(p, eig.EigenvectorColumns(dim)), p.BartlettSpectrum(r), dim
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

// quadFormC is the constant of TestQuadFormMatchesDirectSums' bound;
// the worst case measured is 0.38.
const quadFormC = 1

// randHermitian returns a seeded random n x n Hermitian matrix.
func randHermitian(r *rng.Stream, n int) *cmath.Matrix {
	m := cmath.NewMatrix(n, n)
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

// randOrthonormal returns k random orthonormal vectors of length n:
// complex Gaussian vectors, each orthogonalised twice against the ones
// before it by modified Gram–Schmidt.
func randOrthonormal(r *rng.Stream, n, k int) []cmath.Vector {
	us := make([]cmath.Vector, k)
	for j := range us {
		u := cmath.Vector(r.ComplexGaussianVec(n, 1))
		for pass := 0; pass < 2; pass++ {
			for _, q := range us[:j] {
				d := q.Dot(u)
				for i := range u {
					u[i] -= d * q[i]
				}
			}
		}
		us[j] = u.Normalize()
	}
	return us
}

// TestQuadFormMatchesDirectSums checks both spectrum kernels' diagonal-sum
// forms against the direct sums at every grid angle e, at n ∈ {3, 8, 32}
// and at grid steps 1 and 0.7: eᴴRe for seeded random Hermitian R (from
// the sums Bartlett leaves in its scratch), and Σ_k |eᴴu_k|² for random
// orthonormal sets of k ≤ min(5, n) vectors (from the projector sums
// MUSIC leaves there). The form reads each ±θ pair in one pass over the
// negative half of the steering table; the direct sums take e from
// SteeringVector at each angle, so the mirrored half is checked against
// vectors it was not built from. With ‖e‖² = n, |eᴴMe| is at most
// n·‖M‖_F, and the gate is c·n·ε on that scale:
//
//	|form − direct| ≤ c·n·ε · n·‖M‖_F,  c = quadFormC,
//
// where ‖P‖_F = √k for the projector of k orthonormal vectors.
func TestQuadFormMatchesDirectSums(t *testing.T) {
	const eps = 0x1p-52
	r := rng.New(20)
	worst := map[string]float64{}
	for _, grid := range []struct {
		n    int
		step float64
	}{{3, 1}, {8, 1}, {32, 1}, {3, 0.7}, {8, 0.7}, {32, 0.7}} {
		n := grid.n
		cfg := DefaultConfig()
		cfg.Subarray, cfg.MaxSources, cfg.ThetaStepDeg = n, 2, grid.step
		p, err := NewProcessor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := make(cmath.Vector, n)
		got := make([]float64, len(p.thetasDeg))
		check := func(kind, name string, norm float64, direct func(e cmath.Vector) float64) {
			p.quadFormInto(c, got)
			for ti, th := range p.thetasDeg {
				e := SteeringVector(n, cfg.Lambda, cfg.Delta(), th*math.Pi/180)
				units := math.Abs(got[ti]-direct(e)) / (float64(n) * norm) / (float64(n) * eps)
				worst[kind] = math.Max(worst[kind], units)
				if units > quadFormC {
					t.Fatalf("%s %s at %g°: form %g, direct %g (%.3g·n·ε·n‖M‖_F > %g)",
						kind, name, th, got[ti], direct(e), units, float64(quadFormC))
				}
			}
		}
		for trial := 0; trial < 5; trial++ {
			m := randHermitian(r, n)
			p.bartlettSpectrumInto(m, got, c) // leaves R's diagonal sums in c
			check("R", fmt.Sprintf("n=%d step=%g #%d", n, grid.step, trial), m.FrobeniusNorm(), func(e cmath.Vector) float64 {
				return real(e.Dot(m.MulVec(e)))
			})
		}
		for k := 1; k <= min(5, n); k++ {
			us := randOrthonormal(r, n, k)
			p.musicSpectrumComplementInto(us, got, c) // leaves P's diagonal sums in c
			check("P", fmt.Sprintf("n=%d step=%g k=%d", n, grid.step, k), math.Sqrt(float64(k)), func(e cmath.Vector) float64 {
				var s float64
				for _, u := range us {
					d := e.Dot(u)
					s += real(d)*real(d) + imag(d)*imag(d)
				}
				return s
			})
		}
	}
	t.Logf("worst error in units of n·ε·n‖M‖_F (bound c = %g): %v", float64(quadFormC), worst)
}

// TestComputeImageRejectsNonFiniteSample: a NaN or infinite sample fails
// the first frame whose window holds it with cmath.ErrNotFinite, and the
// error names the frame by its first sample.
func TestComputeImageRejectsNonFiniteSample(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1))} {
		h := goldenChannel(cfg, 256)
		h[100] = bad // first in the window of the frame at sample 48
		_, err := p.ComputeImage(h)
		if !errors.Is(err, cmath.ErrNotFinite) || !strings.Contains(err.Error(), "frame at sample 48") {
			t.Fatalf("sample %v: err = %v, want ErrNotFinite at the frame at sample 48", bad, err)
		}
	}
}

// simChannel returns the combined channel of a seeded, nulled 4 s
// capture of two walkers, with the isar config of its radio: the data
// the product's frame kernel sees.
func simChannel(tb testing.TB) ([]complex128, Config) {
	tb.Helper()
	sc := sim.NewScene(sim.SceneConfig{Seed: 9})
	for k := 0; k < 2; k++ {
		if _, err := sc.AddWalker(4); err != nil {
			tb.Fatal(err)
		}
	}
	d, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	ncfg := nulling.DefaultConfig()
	res, err := nulling.Run(d, ncfg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Lambda, cfg.SampleT = d.Wavelength(), d.SampleT()
	perSub, err := d.Capture(res.P, ncfg.BoostDB, 0, int(4/cfg.SampleT))
	if err != nil {
		tb.Fatal(err)
	}
	h, err := ofdm.AverageSubcarriers(perSub)
	if err != nil {
		tb.Fatal(err)
	}
	return h, cfg
}

// BenchmarkProcessFrame times the frame kernel at prototype geometry
// with a pooled workspace, as the batch and stream chains run it (run
// with -benchmem: 2 allocs/op, the emitted spectra), on two inputs:
// golden, the noise-free two-tone golden channel, whose covariance has
// about 3 nonzero eigenvalues, so QL finishes almost at once; and sim,
// every window of a seeded, nulled 2-walker sim capture, whose noisy
// covariances cost QL its full iteration count.
func BenchmarkProcessFrame(b *testing.B) {
	cfg := DefaultConfig()
	golden := goldenChannel(cfg, cfg.Window+1024*cfg.Hop)
	simH, simCfg := simChannel(b)
	for _, in := range []struct {
		name string
		cfg  Config
		h    []complex128
	}{{"golden", cfg, golden}, {"sim", simCfg, simH}} {
		b.Run(in.name, func(b *testing.B) {
			p, err := NewProcessor(in.cfg)
			if err != nil {
				b.Fatal(err)
			}
			specs := p.FrameSpecs(len(in.h))
			sc := p.newFrameScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := specs[i%len(specs)]
				if _, err := p.processFrame(in.h[spec.Start:spec.Start+in.cfg.Window], spec, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
