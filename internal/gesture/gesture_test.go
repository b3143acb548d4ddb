package gesture

import (
	"math"
	"testing"

	"wivi/internal/isar"
	"wivi/internal/motion"
	"wivi/internal/rng"
)

const frameT = 0.08 // seconds per frame

// synthSeries builds a signed angle-energy series containing the given
// bits as triangle pairs, with amplitude amp and Gaussian noise sigma.
func synthSeries(bits []motion.Bit, amp, noiseSigma float64, seed int64) (series, times []float64) {
	const stepFrames = 12 // ~0.95s at 0.08s frames
	const pauseFrames = 3 // between steps
	const gapFrames = 10  // between bits
	const leadFrames = 15
	n := leadFrames + len(bits)*(2*stepFrames+pauseFrames+gapFrames) + 20
	series = make([]float64, n)
	times = make([]float64, n)
	for i := range times {
		times[i] = float64(i) * frameT
	}
	pos := leadFrames
	tri := func(center int, sign float64) {
		for i := -stepFrames / 2; i <= stepFrames/2; i++ {
			idx := center + i
			if idx < 0 || idx >= n {
				continue
			}
			v := 1 - math.Abs(float64(i))/float64(stepFrames/2)
			series[idx] += sign * amp * v
		}
	}
	for _, b := range bits {
		first, second := 1.0, -1.0
		if b == motion.Bit1 {
			first, second = -1.0, 1.0
		}
		tri(pos+stepFrames/2, first)
		tri(pos+stepFrames+pauseFrames+stepFrames/2, second)
		pos += 2*stepFrames + pauseFrames + gapFrames
	}
	s := rng.New(seed)
	for i := range series {
		series[i] += s.Gaussian(0, noiseSigma)
	}
	return series, times
}

func decCfg() DecoderConfig {
	c := DefaultDecoderConfig(frameT)
	c.StepDur = 12 * frameT
	return c
}

func TestDecodeSingleBits(t *testing.T) {
	for _, b := range []motion.Bit{motion.Bit0, motion.Bit1} {
		series, times := synthSeries([]motion.Bit{b}, 1.0, 0.02, 1)
		res, err := Decode(series, times, decCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bits) != 1 || res.Bits[0] != b {
			t.Fatalf("bit %v decoded as %v (steps %v)", b, res.Bits, res.Steps)
		}
		if res.BitSNRsDB[0] < 3 {
			t.Fatalf("clean bit SNR = %v dB", res.BitSNRsDB[0])
		}
	}
}

func TestDecodeFourGestureMessage(t *testing.T) {
	// The Fig. 6-1 message: forward-back, back-forward = bits 0, 1.
	bits := []motion.Bit{motion.Bit0, motion.Bit1, motion.Bit1, motion.Bit0}
	series, times := synthSeries(bits, 1.0, 0.03, 2)
	res, err := Decode(series, times, decCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bits) != len(bits) {
		t.Fatalf("decoded %d bits, want %d (steps=%d unpaired=%d)",
			len(res.Bits), len(bits), len(res.Steps), res.UnpairedSteps)
	}
	for i := range bits {
		if res.Bits[i] != bits[i] {
			t.Fatalf("bit %d = %v, want %v", i, res.Bits[i], bits[i])
		}
	}
	// Bit times must be increasing.
	for i := 1; i < len(res.BitTimes); i++ {
		if res.BitTimes[i] <= res.BitTimes[i-1] {
			t.Fatal("bit times not increasing")
		}
	}
}

func TestWeakGestureErasedNotFlipped(t *testing.T) {
	// A gesture below the SNR gate must be dropped, producing zero bits —
	// the paper's errors are erasures, never bit flips (§7.5).
	series, times := synthSeries([]motion.Bit{motion.Bit0}, 0.012, 0.05, 3)
	res, err := Decode(series, times, decCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bits) != 0 {
		t.Fatalf("weak gesture produced bits %v, want erasure", res.Bits)
	}
}

func TestNoiseOnlyProducesNoBits(t *testing.T) {
	s := rng.New(4)
	n := 300
	series := make([]float64, n)
	times := make([]float64, n)
	for i := range series {
		series[i] = s.Gaussian(0, 0.05)
		times[i] = float64(i) * frameT
	}
	res, err := Decode(series, times, decCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bits) > 1 {
		t.Fatalf("noise decoded as %d bits", len(res.Bits))
	}
}

// TestNeverFlipsBits is the statistical form of the paper's claim: across
// many noisy trials, a transmitted bit is either decoded correctly or
// erased — never decoded as the opposite bit.
func TestNeverFlipsBits(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		bit := motion.Bit(trial % 2)
		amp := 0.05 + 0.03*float64(trial%10) // spans weak to strong
		series, times := synthSeries([]motion.Bit{bit}, amp, 0.05, int64(trial+10))
		res, err := Decode(series, times, decCfg())
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range res.Bits {
			if got != bit {
				t.Fatalf("trial %d: bit %v decoded as %v (flip!)", trial, bit, got)
			}
		}
	}
}

func TestDecodeValidation(t *testing.T) {
	cfg := decCfg()
	if _, err := Decode(nil, nil, cfg); err == nil {
		t.Fatal("empty series accepted")
	}
	if _, err := Decode([]float64{1}, []float64{0, 1}, cfg); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := cfg
	bad.FrameT = 0
	if _, err := Decode([]float64{1, 2, 3}, []float64{0, 1, 2}, bad); err == nil {
		t.Fatal("zero FrameT accepted")
	}
	if _, err := Decode([]float64{1, 2}, []float64{0, 1}, cfg); err == nil {
		t.Fatal("too-short series accepted")
	}
}

func TestAngleEnergySeriesSigns(t *testing.T) {
	thetas := make([]float64, 181)
	for i := range thetas {
		thetas[i] = float64(i - 90)
	}
	mkSpec := func(angle float64) []float64 {
		s := make([]float64, 181)
		for i := range s {
			s[i] = 1
			d := (thetas[i] - angle) / 4
			s[i] += 50 * math.Exp(-d*d/2)
		}
		return s
	}
	flat := make([]float64, 181)
	for i := range flat {
		flat[i] = 1
	}
	// Three signal frames plus three quiet frames (the quiet frames pin
	// the motion-power baseline the series subtracts).
	img := &isar.Image{
		ThetaDeg:    thetas,
		Power:       [][]float64{mkSpec(60), mkSpec(-45), mkSpec(0), flat, flat, flat},
		Times:       []float64{0, 1, 2, 3, 4, 5},
		MotionPower: []float64{2, 2, 2, 0.001, 0.001, 0.001},
		SignalDim:   []int{2, 2, 1, 1, 1, 1},
	}
	series := AngleEnergySeries(img, 8)
	if series[0] <= 0 {
		t.Fatalf("positive-angle frame gave %v", series[0])
	}
	if series[1] >= 0 {
		t.Fatalf("negative-angle frame gave %v", series[1])
	}
	// DC-only frame: energy inside the guard band contributes nothing.
	if math.Abs(series[2]) > 0.05*math.Abs(series[0]) {
		t.Fatalf("DC frame leaked %v into the series", series[2])
	}
}

func TestAngleEnergyScalesWithMotionPower(t *testing.T) {
	thetas := []float64{-30, 0, 30}
	spec := []float64{1, 1, 11}
	flat := []float64{1, 1, 1}
	// Quiet frames pin the baseline at ~0 so the two signal frames scale
	// with their motion power.
	img := &isar.Image{
		ThetaDeg:    thetas,
		Power:       [][]float64{flat, flat, flat, spec, spec},
		Times:       []float64{0, 1, 2, 3, 4},
		MotionPower: []float64{0, 0, 0, 1, 4},
		SignalDim:   []int{1, 1, 1, 1, 1},
	}
	s := AngleEnergySeries(img, 8)
	if s[3] <= 0 {
		t.Fatalf("signal frame gave %v", s[3])
	}
	if math.Abs(s[4]-4*s[3]) > 1e-9 {
		t.Fatalf("series does not scale with motion power: %v", s)
	}
}

func TestDecodeImageEmpty(t *testing.T) {
	img := &isar.Image{ThetaDeg: []float64{0}}
	if _, err := DecodeImage(img, decCfg()); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestMadSigma(t *testing.T) {
	s := rng.New(8)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = s.Gaussian(0, 2)
	}
	sigma := madSigma(x)
	if math.Abs(sigma-2) > 0.15 {
		t.Fatalf("madSigma = %v, want ~2", sigma)
	}
	// Robustness: a few large outliers barely move it.
	for i := 0; i < 50; i++ {
		x[i] = 1000
	}
	sigma2 := madSigma(x)
	if math.Abs(sigma2-2) > 0.3 {
		t.Fatalf("madSigma with outliers = %v", sigma2)
	}
	if madSigma(nil) != 0 {
		t.Fatal("empty madSigma should be 0")
	}
}
