package detect

import (
	"math"
	"testing"

	"wivi/internal/isar"
)

// lineImage builds a one-frame image with Gaussian line peaks at the
// given angles and the given motion power.
func lineImage(motionPower float64, angles ...float64) *isar.Image {
	thetas := make([]float64, 181)
	for i := range thetas {
		thetas[i] = float64(i - 90)
	}
	spec := make([]float64, 181)
	for i := range spec {
		spec[i] = 1
		for _, a := range angles {
			d := (thetas[i] - a) / 4
			spec[i] += 80 * math.Exp(-d*d/2)
		}
	}
	bart := make([]float64, 181)
	for i := range bart {
		bart[i] = motionPower * (spec[i] - 1 + 0.01)
	}
	return &isar.Image{
		ThetaDeg:    thetas,
		Power:       [][]float64{spec},
		Bartlett:    [][]float64{bart},
		Times:       []float64{0},
		MotionPower: []float64{motionPower},
		SignalDim:   []int{1 + len(angles)},
	}
}

func TestLineSpreadVarianceGrowsWithLines(t *testing.T) {
	const noise = 1e-3
	one := LineSpreadVariance(lineImage(1, 40), 0, noise, 8)
	two := LineSpreadVariance(lineImage(1, 40, -40), 0, noise, 8)
	if one <= 0 {
		t.Fatalf("single-line variance %v", one)
	}
	if two <= one {
		t.Fatalf("two lines %v not > one line %v", two, one)
	}
}

func TestLineSpreadVarianceScalesWithPower(t *testing.T) {
	const noise = 1e-3
	weak := LineSpreadVariance(lineImage(1e-2, 40), 0, noise, 8)
	strong := LineSpreadVariance(lineImage(1e2, 40), 0, noise, 8)
	if strong <= weak {
		t.Fatalf("strong %v not > weak %v", strong, weak)
	}
}

func TestLineSpreadVarianceNoLines(t *testing.T) {
	if v := LineSpreadVariance(lineImage(1), 0, 1e-3, 8); v != 0 {
		t.Fatalf("no-line variance %v, want 0", v)
	}
	// Lines inside the guard band are excluded (the DC).
	if v := LineSpreadVariance(lineImage(1, 3), 0, 1e-3, 8); v != 0 {
		t.Fatalf("DC-band line variance %v, want 0", v)
	}
}

func TestLineSpreadVarianceZeroNoiseFloor(t *testing.T) {
	// Degenerate floors must not produce NaN/Inf.
	v := LineSpreadVariance(lineImage(1, 40), 0, 0, 8)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("degenerate floor produced %v", v)
	}
}

func TestMeanLineVarianceEmpty(t *testing.T) {
	img := &isar.Image{ThetaDeg: []float64{0}}
	if v := MeanLineVariance(img, 1e-3, 8); v != 0 {
		t.Fatalf("empty image variance %v", v)
	}
}
