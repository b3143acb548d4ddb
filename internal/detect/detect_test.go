package detect

import (
	"math"
	"testing"

	"wivi/internal/rng"
)

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
