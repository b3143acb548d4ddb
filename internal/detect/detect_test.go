package detect

import (
	"math"
	"testing"

	"wivi/internal/isar"
	"wivi/internal/rng"
)

// flatImage builds a one-frame image with the given pseudospectrum values
// on a [-90, 90] 1-degree grid.
func imageWithSpectra(spectra ...[]float64) *isar.Image {
	thetas := make([]float64, 181)
	for i := range thetas {
		thetas[i] = float64(i - 90)
	}
	img := &isar.Image{ThetaDeg: thetas}
	for f, s := range spectra {
		if len(s) != len(thetas) {
			panic("spectrum length")
		}
		img.Power = append(img.Power, s)
		img.Times = append(img.Times, float64(f))
		img.MotionPower = append(img.MotionPower, 1)
		img.SignalDim = append(img.SignalDim, 1)
	}
	return img
}

// spectrumWithPeaks returns a flat (=1) spectrum with Gaussian bumps of
// the given linear height at the given angles.
func spectrumWithPeaks(height float64, widthDeg float64, angles ...float64) []float64 {
	s := make([]float64, 181)
	for i := range s {
		s[i] = 1
		th := float64(i - 90)
		for _, a := range angles {
			d := (th - a) / widthDeg
			s[i] += (height - 1) * math.Exp(-d*d/2)
		}
	}
	return s
}

func TestSpatialCentroidSymmetric(t *testing.T) {
	img := imageWithSpectra(spectrumWithPeaks(100, 5, -40, 40))
	c := SpatialCentroid(img, 0)
	if math.Abs(c) > 1 {
		t.Fatalf("symmetric spectrum centroid = %v, want ~0", c)
	}
}

func TestSpatialCentroidSkewed(t *testing.T) {
	img := imageWithSpectra(spectrumWithPeaks(100, 5, 60))
	c := SpatialCentroid(img, 0)
	if c < 2 {
		t.Fatalf("skewed spectrum centroid = %v, want > 0", c)
	}
}

func TestSpatialVarianceGrowsWithSpread(t *testing.T) {
	// One human: single line near 0; more humans: lines spread over angle.
	narrow := imageWithSpectra(spectrumWithPeaks(100, 5, 0))
	one := imageWithSpectra(spectrumWithPeaks(100, 5, 0, 25))
	three := imageWithSpectra(spectrumWithPeaks(100, 5, 0, -60, 30, 70))
	vNarrow := MeanSpatialVariance(narrow)
	vOne := MeanSpatialVariance(one)
	vThree := MeanSpatialVariance(three)
	if !(vNarrow < vOne && vOne < vThree) {
		t.Fatalf("variance not increasing with spread: %v, %v, %v", vNarrow, vOne, vThree)
	}
}

func TestSpatialVarianceScaleMatchesPaper(t *testing.T) {
	// Fig. 7-3 plots variances "in tens of millions": multi-human images
	// on a 1-degree grid must land within a few orders of that scale.
	img := imageWithSpectra(spectrumWithPeaks(1000, 8, -50, 20, 65))
	v := MeanSpatialVariance(img)
	if v < 1e5 || v > 1e9 {
		t.Fatalf("variance scale %v outside plausible range of Fig. 7-3", v)
	}
}

func TestMeanSpatialVarianceEmptyImage(t *testing.T) {
	img := &isar.Image{ThetaDeg: []float64{0}}
	if v := MeanSpatialVariance(img); v != 0 {
		t.Fatalf("empty image variance = %v", v)
	}
}

func TestTrainSeparableClasses(t *testing.T) {
	samples := map[int][]float64{
		0: {1, 2, 3},
		1: {10, 12, 14},
		2: {30, 35},
	}
	c, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Thresholds) != 2 {
		t.Fatalf("thresholds = %v", c.Thresholds)
	}
	// Perfect classification of the training data.
	for k, vs := range samples {
		for _, v := range vs {
			if got := c.Classify(v); got != k {
				t.Fatalf("Classify(%v) = %d, want %d (thresholds %v)", v, got, k, c.Thresholds)
			}
		}
	}
}

func TestTrainOverlappingClasses(t *testing.T) {
	samples := map[int][]float64{
		2: {10, 20, 30},
		3: {25, 35, 45},
	}
	c, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	if c.Base != 2 || len(c.Thresholds) != 1 {
		t.Fatalf("classifier base/thresholds = %d/%v", c.Base, c.Thresholds)
	}
	// Threshold falls between the means (20 and 35).
	th := c.Thresholds[0]
	if th < 20 || th > 35 {
		t.Fatalf("overlap threshold = %v", th)
	}
	// Predictions stay within the trained label range.
	if got := c.Classify(-100); got != 2 {
		t.Fatalf("Classify(-100) = %d, want 2", got)
	}
	if got := c.Classify(1e9); got != 3 {
		t.Fatalf("Classify(1e9) = %d, want 3", got)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(map[int][]float64{1: {1}}); err != ErrNeedTwoClasses {
		t.Fatalf("single class err = %v", err)
	}
	if _, err := Train(map[int][]float64{0: {1}, 1: nil}); err == nil {
		t.Fatal("empty class accepted")
	}
	if _, err := Train(map[int][]float64{-1: {1}, 0: {2}}); err == nil {
		t.Fatal("negative label accepted")
	}
}

func TestTrainWithMissingIntermediateClass(t *testing.T) {
	c, err := Train(map[int][]float64{0: {0, 1}, 2: {20, 22}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Thresholds) != 2 {
		t.Fatalf("thresholds = %v", c.Thresholds)
	}
	if c.Classify(0.5) != 0 || c.Classify(21) != 2 {
		t.Fatalf("classification with interpolated class wrong: %v", c.Thresholds)
	}
}

func TestThresholdsMonotone(t *testing.T) {
	s := rng.New(4)
	samples := map[int][]float64{}
	for k := 0; k < 4; k++ {
		for i := 0; i < 20; i++ {
			samples[k] = append(samples[k], s.Gaussian(float64(k*10), 4))
		}
	}
	c, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c.Thresholds); i++ {
		if c.Thresholds[i] < c.Thresholds[i-1] {
			t.Fatalf("thresholds not monotone: %v", c.Thresholds)
		}
	}
}

func TestConfusionMatrix(t *testing.T) {
	m := NewConfusionMatrix(4)
	// Table 7.1 shape: 0 and 1 perfect; 2 confused with 3 15% of the time;
	// 3 confused with 2 10% of the time.
	for i := 0; i < 20; i++ {
		m.Add(0, 0)
		m.Add(1, 1)
	}
	for i := 0; i < 17; i++ {
		m.Add(2, 2)
	}
	for i := 0; i < 3; i++ {
		m.Add(2, 3)
	}
	for i := 0; i < 18; i++ {
		m.Add(3, 3)
	}
	for i := 0; i < 2; i++ {
		m.Add(3, 2)
	}
	diag := m.Diagonal()
	if diag[0] != 100 || diag[1] != 100 {
		t.Fatalf("diagonal = %v", diag)
	}
	if math.Abs(diag[2]-85) > 1e-9 || math.Abs(diag[3]-90) > 1e-9 {
		t.Fatalf("diagonal = %v, want [100 100 85 90]", diag)
	}
	if m.OffByMoreThanOne() != 0 {
		t.Fatal("unexpected off-by->=2 errors")
	}
}

func TestConfusionMatrixClamping(t *testing.T) {
	m := NewConfusionMatrix(3)
	m.Add(1, 7)  // clamps to 2
	m.Add(1, -3) // clamps to 0
	m.Add(9, 1)  // out-of-range actual ignored
	if m.Counts[1][2] != 1 || m.Counts[1][0] != 1 {
		t.Fatalf("clamping wrong: %v", m.Counts)
	}
	if m.OffByMoreThanOne() != 0 {
		t.Fatalf("off-by check after clamp: %d", m.OffByMoreThanOne())
	}
	// Empty rows render as zero percentages.
	if p := m.RowPercent(2); p[0] != 0 || p[1] != 0 || p[2] != 0 {
		t.Fatalf("empty row percent = %v", p)
	}
}
