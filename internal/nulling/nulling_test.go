package nulling

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"wivi/internal/rng"
)

// synthSounder is a noise-controllable fake channel for exercising
// Algorithm 1 without the full physics simulation.
type synthSounder struct {
	h1, h2 []complex128
	// estErr1/estErr2 are injected once into the stage-1 estimates.
	estErr1, estErr2 []complex128
	// measNoise adds fresh complex Gaussian noise of this power to every
	// combined measurement (zero = noise-free).
	measNoise float64
	noise     *rng.Stream
	// singleCalls counts MeasureSingle invocations.
	singleCalls int
	// failCombined forces MeasureCombined errors when set.
	failCombined error
}

func (s *synthSounder) MeasureSingle(ant int) ([]complex128, error) {
	s.singleCalls++
	n := len(s.h1)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		if ant == 1 {
			out[k] = s.h1[k]
			if s.estErr1 != nil {
				out[k] += s.estErr1[k]
			}
		} else {
			out[k] = s.h2[k]
			if s.estErr2 != nil {
				out[k] += s.estErr2[k]
			}
		}
	}
	return out, nil
}

func (s *synthSounder) MeasureCombined(p []complex128, boostDB float64) ([]complex128, error) {
	if s.failCombined != nil {
		return nil, s.failCombined
	}
	n := len(s.h1)
	out := make([]complex128, n)
	// Boost raises tx power; the estimate normalizes it out, so its only
	// effect here is reducing the relative measurement noise.
	boost := math.Pow(10, boostDB/20)
	for k := 0; k < n; k++ {
		out[k] = s.h1[k] + p[k]*s.h2[k]
		if s.measNoise > 0 {
			out[k] += s.noise.ComplexGaussian(s.measNoise) / complex(boost, 0)
		}
	}
	return out, nil
}

func newSynth(seed int64, n int) *synthSounder {
	st := rng.New(seed)
	s := &synthSounder{
		h1:    make([]complex128, n),
		h2:    make([]complex128, n),
		noise: st.Derive("meas"),
	}
	for k := 0; k < n; k++ {
		s.h1[k] = complex(st.Gaussian(0, 1), st.Gaussian(0, 1))
		s.h2[k] = complex(st.Gaussian(0, 1), st.Gaussian(0, 1))
	}
	return s
}

func TestInitialNullingPerfectEstimates(t *testing.T) {
	s := newSynth(1, 16)
	res, err := Run(s, Config{BoostDB: 12, MaxIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	// With exact estimates the residual is exactly zero.
	for k, r := range res.Residual {
		if cmplx.Abs(r) > 1e-12 {
			t.Fatalf("subcarrier %d residual %v, want 0", k, r)
		}
	}
	if s.singleCalls != 2 {
		t.Fatalf("MeasureSingle called %d times, want 2", s.singleCalls)
	}
	if res.AchievedNullingDB() < 100 {
		t.Fatalf("perfect nulling reported only %v dB", res.AchievedNullingDB())
	}
}

func TestIterativeNullingReducesResidual(t *testing.T) {
	s := newSynth(2, 16)
	// Inject 1% estimation errors.
	st := rng.New(3)
	s.estErr1 = make([]complex128, 16)
	s.estErr2 = make([]complex128, 16)
	for k := range s.estErr1 {
		s.estErr1[k] = complex(st.Gaussian(0, 0.01), st.Gaussian(0, 0.01))
		s.estErr2[k] = complex(st.Gaussian(0, 0.01), st.Gaussian(0, 0.01))
	}
	res, err := Run(s, Config{BoostDB: 12, MaxIterations: 8, ConvergeRel: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 3 {
		t.Fatalf("history too short: %v", res.History)
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if last >= first/100 {
		t.Fatalf("iterative nulling only improved %vx (history %v)", first/last, res.History)
	}
}

// TestLemma411GeometricDecay verifies the convergence lemma: in the
// noise-free regime the residual decays geometrically with per-iteration
// ratio |delta2 / h2|.
func TestLemma411GeometricDecay(t *testing.T) {
	const n = 1
	s := &synthSounder{
		h1: []complex128{complex(1.0, 0.3)},
		h2: []complex128{complex(0.8, -0.5)},
	}
	// Relative error on h2 of 5%, no error on h1 measurement noise-free.
	delta2 := s.h2[0] * complex(0.05, 0)
	s.estErr2 = []complex128{delta2}
	s.estErr1 = []complex128{complex(0.02, -0.01)}

	res, err := Run(s, Config{BoostDB: 12, MaxIterations: 6, ConvergeRel: 0})
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := cmplx.Abs(delta2 / s.h2[0]) // 0.05
	got := ConvergenceRatio(res.History, 1e-14)
	if math.IsNaN(got) {
		t.Fatalf("no measurable decay: history %v", res.History)
	}
	// The lemma is first-order; allow 50% slack on the ratio.
	if got > wantRatio*1.5 {
		t.Fatalf("decay ratio %v, lemma predicts ~%v (history %v)", got, wantRatio, res.History)
	}
}

func TestNullingWithMeasurementNoiseHitsNoiseFloor(t *testing.T) {
	s := newSynth(4, 32)
	st := rng.New(5)
	s.estErr1 = make([]complex128, 32)
	s.estErr2 = make([]complex128, 32)
	const estStd = 0.01
	for k := range s.estErr1 {
		s.estErr1[k] = complex(st.Gaussian(0, estStd), st.Gaussian(0, estStd))
		s.estErr2[k] = complex(st.Gaussian(0, estStd), st.Gaussian(0, estStd))
	}
	s.measNoise = 2 * estStd * estStd
	res, err := Run(s, Config{BoostDB: 12, MaxIterations: 10, ConvergeRel: 0})
	if err != nil {
		t.Fatal(err)
	}
	nullDB := res.AchievedNullingDB()
	// Channel RMS ~ sqrt(2)*sqrt(2) and noise floor ~ estStd/boost: the
	// achieved nulling must be deep but finite.
	if nullDB < 30 || nullDB > 90 {
		t.Fatalf("achieved nulling %v dB, want 30-90 dB", nullDB)
	}
}

func TestRunValidation(t *testing.T) {
	s := &synthSounder{h1: nil, h2: nil}
	if _, err := Run(s, DefaultConfig()); !errors.Is(err, ErrNoSubcarriers) {
		t.Fatalf("err = %v, want ErrNoSubcarriers", err)
	}
	bad := &synthSounder{h1: []complex128{1, 2}, h2: []complex128{1, 2}}
	bad.failCombined = errors.New("saturated")
	if _, err := Run(bad, DefaultConfig()); err == nil {
		t.Fatal("combined failure not propagated")
	}
	deg := &synthSounder{h1: []complex128{1}, h2: []complex128{0}}
	if _, err := Run(deg, DefaultConfig()); !errors.Is(err, ErrDegenerateModel) {
		t.Fatalf("err = %v, want ErrDegenerateModel", err)
	}
	if _, err := Run(newSynth(1, 4), Config{MaxIterations: -1}); err == nil {
		t.Fatal("negative MaxIterations accepted")
	}
}

func TestZeroIterationConfig(t *testing.T) {
	s := newSynth(9, 8)
	res, err := Run(s, Config{BoostDB: 0, MaxIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0", res.Iterations)
	}
	if len(res.History) != 1 {
		t.Fatalf("history = %v, want single entry", res.History)
	}
}

func TestConvergenceRatioEdgeCases(t *testing.T) {
	if !math.IsNaN(ConvergenceRatio(nil, 0)) {
		t.Fatal("empty history should be NaN")
	}
	if !math.IsNaN(ConvergenceRatio([]float64{1}, 0)) {
		t.Fatal("single-entry history should be NaN")
	}
	r := ConvergenceRatio([]float64{1, 0.1, 0.01}, 1e-9)
	if math.Abs(r-0.1) > 1e-9 {
		t.Fatalf("ratio = %v, want 0.1", r)
	}
	// Floor cuts off noise-dominated tail.
	r = ConvergenceRatio([]float64{1, 0.1, 1e-12, 2e-12}, 1e-9)
	if math.Abs(r-0.1) > 1e-9 {
		t.Fatalf("floored ratio = %v, want 0.1", r)
	}
}

func TestAchievedNullingDBEdges(t *testing.T) {
	r := &Result{Residual: []complex128{0}, PreNullRMS: 1}
	if r.AchievedNullingDB() != 300 {
		t.Fatal("zero residual should clamp to 300 dB")
	}
	r2 := &Result{Residual: []complex128{1}, PreNullRMS: 0}
	if r2.AchievedNullingDB() != 0 {
		t.Fatal("zero pre-null RMS should report 0 dB")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.BoostDB != 12 {
		t.Fatalf("default boost = %v dB, paper uses 12 dB", c.BoostDB)
	}
	if c.MaxIterations < 1 {
		t.Fatal("default must allow iterative nulling")
	}
}
