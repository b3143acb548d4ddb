package isar

import (
	"math"
	"math/cmplx"
	"slices"
	"strings"
	"testing"

	"wivi/internal/dsp"
	"wivi/internal/rng"
)

// synthTarget produces the channel of an ideal point target moving with
// the given radial speed toward (+) or away from (-) the device:
// h[n] = amp * e^{+j 2 pi * 2 v T n / lambda} (our propagation convention:
// approaching -> phase advances), plus optional DC and noise.
func synthTarget(n int, cfg Config, radialSpeed, amp float64, dc complex128, noisePwr float64, seed int64) []complex128 {
	s := rng.New(seed)
	h := make([]complex128, n)
	for i := 0; i < n; i++ {
		phase := 2 * math.Pi * 2 * radialSpeed * cfg.SampleT * float64(i) / cfg.Lambda
		h[i] = cmplx.Rect(amp, phase) + dc
		if noisePwr > 0 {
			h[i] += s.ComplexGaussian(noisePwr)
		}
	}
	return h
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 64
	cfg.Subarray = 24
	cfg.Hop = 16
	return cfg
}

func peakTheta(spec, thetas []float64) float64 {
	return thetas[dsp.Argmax(spec)]
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Lambda: 0, SampleT: 1, Velocity: 1, Window: 10, Subarray: 4, Hop: 1, ThetaStepDeg: 1, MaxSources: 2},
		{Lambda: 1, SampleT: 0, Velocity: 1, Window: 10, Subarray: 4, Hop: 1, ThetaStepDeg: 1, MaxSources: 2},
		{Lambda: 1, SampleT: 1, Velocity: 0, Window: 10, Subarray: 4, Hop: 1, ThetaStepDeg: 1, MaxSources: 2},
		{Lambda: 1, SampleT: 1, Velocity: 1, Window: 2, Subarray: 2, Hop: 1, ThetaStepDeg: 1, MaxSources: 1},
		{Lambda: 1, SampleT: 1, Velocity: 1, Window: 10, Subarray: 20, Hop: 1, ThetaStepDeg: 1, MaxSources: 2},
		{Lambda: 1, SampleT: 1, Velocity: 1, Window: 10, Subarray: 4, Hop: 0, ThetaStepDeg: 1, MaxSources: 2},
		{Lambda: 1, SampleT: 1, Velocity: 1, Window: 10, Subarray: 4, Hop: 1, ThetaStepDeg: 0, MaxSources: 2},
		{Lambda: 1, SampleT: 1, Velocity: 1, Window: 10, Subarray: 4, Hop: 1, ThetaStepDeg: 1, MaxSources: 9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDeltaIsTwiceOneWaySpacing(t *testing.T) {
	cfg := DefaultConfig()
	want := 2 * cfg.Velocity * cfg.SampleT
	if cfg.Delta() != want {
		t.Fatalf("Delta = %v, want %v", cfg.Delta(), want)
	}
}

func TestSteeringVectorStructure(t *testing.T) {
	v := SteeringVector(8, 0.125, 0.0064, math.Pi/6) // sin=0.5
	if len(v) != 8 {
		t.Fatalf("length %d", len(v))
	}
	if cmplx.Abs(v[0]-1) > 1e-12 {
		t.Fatalf("v[0] = %v, want 1", v[0])
	}
	// Element-to-element phase increment = 2 pi Delta sin(theta)/lambda.
	wantInc := 2 * math.Pi * 0.0064 * 0.5 / 0.125
	for i := 1; i < len(v); i++ {
		inc := cmplx.Phase(v[i] * cmplx.Conj(v[i-1]))
		if math.Abs(inc-wantInc) > 1e-9 {
			t.Fatalf("phase increment %v, want %v", inc, wantInc)
		}
	}
	// theta = 0 gives a constant vector (the DC direction).
	z := SteeringVector(8, 0.125, 0.0064, 0)
	for _, x := range z {
		if cmplx.Abs(x-1) > 1e-12 {
			t.Fatal("zero-angle steering not constant")
		}
	}
}

func TestBeamformPeaksAtApproachingTarget(t *testing.T) {
	cfg := testConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Target approaching at the assumed speed: theta = +90.
	h := synthTarget(cfg.Window, cfg, cfg.Velocity, 1, 0, 0, 1)
	spec, err := p.BeamformSpectrum(h)
	if err != nil {
		t.Fatal(err)
	}
	if th := peakTheta(spec, p.Thetas()); th < 80 {
		t.Fatalf("approaching target peak at %v deg, want ~+90", th)
	}
	// Receding target: theta = -90.
	h = synthTarget(cfg.Window, cfg, -cfg.Velocity, 1, 0, 0, 2)
	spec, _ = p.BeamformSpectrum(h)
	if th := peakTheta(spec, p.Thetas()); th > -80 {
		t.Fatalf("receding target peak at %v deg, want ~-90", th)
	}
}

func TestBeamformIntermediateAngle(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	// Radial speed v*sin(30 deg) = 0.5 m/s -> theta = +30.
	h := synthTarget(cfg.Window, cfg, 0.5*cfg.Velocity, 1, 0, 0, 3)
	spec, _ := p.BeamformSpectrum(h)
	th := peakTheta(spec, p.Thetas())
	if math.Abs(th-30) > 4 {
		t.Fatalf("peak at %v deg, want ~30", th)
	}
}

func TestMUSICSharperThanBeamforming(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	h := synthTarget(cfg.Window, cfg, 0.5*cfg.Velocity, 1, 0, 1e-4, 4)
	bf, err := p.BeamformSpectrum(h)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := p.ProcessFrame(h, FrameSpec{})
	if err != nil {
		t.Fatal(err)
	}
	mu := fr.Power
	// Peak position agreement.
	thBF := peakTheta(bf, p.Thetas())
	thMU := peakTheta(mu, p.Thetas())
	if math.Abs(thBF-thMU) > 5 {
		t.Fatalf("beamform peak %v vs MUSIC peak %v", thBF, thMU)
	}
	// MUSIC is a super-resolution technique: its peak-to-median dynamic
	// range should exceed beamforming's (§5.2).
	drBF := dsp.DB(maxOf(bf) / dsp.Median(bf))
	drMU := dsp.DB(maxOf(mu) / dsp.Median(mu))
	if drMU <= drBF {
		t.Fatalf("MUSIC dynamic range %.1f dB <= beamforming %.1f dB", drMU, drBF)
	}
}

func maxOf(x []float64) float64 {
	_, m := dsp.MinMax(x)
	return m
}

// TestEstimateSignalDimClampOrder pins the clamp ordering fix: the >= 1
// floor must be applied after the MaxSources and n-2 caps, so degenerate
// geometries yield 1 (the DC) rather than 0 and an empty signal
// subspace.
func TestEstimateSignalDimClampOrder(t *testing.T) {
	p, err := NewProcessor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		values []float64
		want   int
	}{
		// Two eigenvalues: the n-2 cap is 0, the floor must win with 1.
		// Before the fix the floor ran first and this returned 0.
		{"two-values-all-signal", []float64{100, 90}, 1},
		{"two-values-quiet", []float64{1, 1}, 1},
		// Three eigenvalues, two strong: n-2 caps to 1.
		{"three-values-two-signal", []float64{1000, 900, 1}, 1},
		// All-noise window: nothing above the factor, floored to 1.
		{"all-noise", []float64{1, 1, 1, 1, 1, 1}, 1},
		// Healthy case: strong signals up to MaxSources.
		{"two-movers", []float64{5000, 900, 1, 1, 1, 1, 1, 1, 1}, 2},
	}
	for _, tc := range cases {
		if got := p.EstimateSignalDim(tc.values); got != tc.want {
			t.Errorf("%s: EstimateSignalDim = %d, want %d", tc.name, got, tc.want)
		}
		if got := p.EstimateSignalDim(tc.values); got < 1 {
			t.Errorf("%s: signal dimension %d < 1 leaves no DC dimension", tc.name, got)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN passes every range check (each
// comparison with it is false), and an infinity passes the lower bounds,
// so each float field is checked for finiteness first. NewProcessor must
// refuse such a config rather than build (and cache) a processor for it.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*Config)
	}{
		{"Lambda", func(c *Config) { c.Lambda = math.NaN() }},
		{"SampleT", func(c *Config) { c.SampleT = math.NaN() }},
		{"Velocity", func(c *Config) { c.Velocity = math.Inf(1) }},
		{"ThetaStepDeg", func(c *Config) { c.ThetaStepDeg = math.NaN() }},
		{"EigNoiseFactor", func(c *Config) { c.EigNoiseFactor = math.NaN() }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", tc.field, err)
		}
		if p, err := NewProcessor(cfg); err == nil {
			t.Errorf("%s: NewProcessor built a processor with %d angles", tc.field, len(p.Thetas()))
		}
	}
}

// TestValidateRejectsNoNoiseSubspace: Subarray 2 leaves no noise
// subspace for MUSIC (dim floor 1, n-2 cap 0), so Validate must reject
// it outright instead of letting EstimateSignalDim degenerate.
func TestValidateRejectsNoNoiseSubspace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 8
	cfg.Subarray = 2
	cfg.MaxSources = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted Subarray=2 (no noise subspace)")
	}
	cfg.Subarray = 3
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected Subarray=3: %v", err)
	}
}

// TestNormalizeMin1Contract: the documented contract is min = 1 on every
// output. Exact zeros are clamped up to the smallest positive entry
// before scaling; an all-zero spectrum normalizes to all ones.
func TestNormalizeMin1Contract(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
	}{
		{"plain", []float64{4, 2, 8}},
		{"with-exact-zero", []float64{4, 0, 8}},
		{"all-zero", []float64{0, 0, 0}},
		{"single-zero", []float64{0}},
		{"tiny-positive", []float64{1e-300, 2e-300}},
	}
	for _, tc := range cases {
		x := append([]float64(nil), tc.in...)
		normalizeMin1(x)
		min := math.Inf(1)
		for _, v := range x {
			if v < min {
				min = v
			}
		}
		if min != 1 {
			t.Errorf("%s: min after normalizeMin1 = %g, want exactly 1 (out %v)", tc.name, min, x)
		}
	}
	// Clamp-then-normalize semantics: the exact zero is clamped up to the
	// smallest positive entry (4) before scaling, so it lands at exactly
	// 1 and the positive entries keep their ratios.
	x := []float64{4, 0, 8}
	normalizeMin1(x)
	if x[0] != 1 || x[1] != 1 || x[2] != 2 {
		t.Errorf("normalizeMin1([4 0 8]) = %v, want [1 1 2]", x)
	}
}

// TestThetaGridMirrorSymmetric checks the grid that quadFormInto's paired
// evaluation reads, at steps 1, 2, 0.7 and 45: the grid is θ_i = (i − h)·step
// with h whole steps in 90°, so θ_{N−1−i} = −θ_i; steerSub[N−1−i] is
// conj(steerSub[i]) bit for bit; and every subarray steering vector, the
// mirrored half included, is SteeringVector at its angle. At steps 1 and
// 2, the only ones the product and the eval use, Thetas() is exactly the
// grid the processor built by accumulating the step from −90.
func TestThetaGridMirrorSymmetric(t *testing.T) {
	for _, step := range []float64{1, 2, 0.7, 45} {
		cfg := DefaultConfig()
		cfg.ThetaStepDeg = step
		p, err := NewProcessor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		th := p.Thetas()
		h := int(math.Floor(90/step + 1e-9))
		if len(th) != 2*h+1 || len(p.steerSub) != len(th) {
			t.Fatalf("step %g: %d angles and %d steering vectors, want %d", step, len(th), len(p.steerSub), 2*h+1)
		}
		last := len(th) - 1
		for i := range th {
			if th[i] != float64(i-h)*step || th[last-i] != -th[i] {
				t.Fatalf("step %g: θ[%d] = %v, θ[%d] = %v: grid not (i−h)·step, or not mirror-symmetric", step, i, th[i], last-i, th[last-i])
			}
			for d, x := range p.steerSub[i] {
				if m := p.steerSub[last-i][d]; m != cmplx.Conj(x) {
					t.Fatalf("step %g: steerSub[%d][%d] = %v, not the conjugate of steerSub[%d][%d] = %v", step, last-i, d, m, i, d, x)
				}
			}
			want := SteeringVector(cfg.Subarray, cfg.Lambda, cfg.Delta(), th[i]*math.Pi/180)
			for d, x := range p.steerSub[i] {
				if cmplx.Abs(x-want[d]) > 1e-15 {
					t.Fatalf("step %g: steerSub[%d][%d] = %v, SteeringVector gives %v", step, i, d, x, want[d])
				}
			}
		}
		if step != 1 && step != 2 {
			continue
		}
		var acc []float64
		for x := -90.0; x <= 90.0+1e-9; x += step {
			acc = append(acc, x)
		}
		if !slices.Equal(th, acc) {
			t.Fatalf("step %g: Thetas() = %v, want the accumulated grid %v", step, th, acc)
		}
	}
}
