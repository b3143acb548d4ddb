package rng

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	a := DeriveSeed(1, "noise")
	b := DeriveSeed(1, "noise")
	c := DeriveSeed(1, "motion")
	same, diff := 0, 0
	for i := 0; i < 50; i++ {
		va, vb, vc := a.Float64(), b.Float64(), c.Float64()
		if va == vb {
			same++
		}
		if va != vc {
			diff++
		}
	}
	if same != 50 {
		t.Fatal("DeriveSeed not reproducible for identical labels")
	}
	if diff < 45 {
		t.Fatal("DeriveSeed streams for different labels look identical")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(7)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestComplexGaussianStatistics(t *testing.T) {
	s := New(123)
	const n = 20000
	const sigma2 = 4.0
	var sum complex128
	var power float64
	for i := 0; i < n; i++ {
		v := s.ComplexGaussian(sigma2)
		sum += v
		power += real(v)*real(v) + imag(v)*imag(v)
	}
	meanAbs := cmplx.Abs(sum) / n
	if meanAbs > 0.05 {
		t.Fatalf("complex Gaussian mean too large: %v", meanAbs)
	}
	avgPower := power / n
	if math.Abs(avgPower-sigma2) > 0.15*sigma2 {
		t.Fatalf("complex Gaussian power = %v, want ~%v", avgPower, sigma2)
	}
}

func TestComplexGaussianVec(t *testing.T) {
	s := New(5)
	v := s.ComplexGaussianVec(64, 1)
	if len(v) != 64 {
		t.Fatalf("len = %d", len(v))
	}
}

func TestUnitPhasor(t *testing.T) {
	s := New(9)
	for i := 0; i < 100; i++ {
		p := s.UnitPhasor()
		if math.Abs(cmplx.Abs(p)-1) > 1e-12 {
			t.Fatalf("phasor magnitude %v", cmplx.Abs(p))
		}
	}
}

func TestLogNormalDB(t *testing.T) {
	s := New(2)
	const n = 20000
	var sumDB float64
	for i := 0; i < n; i++ {
		f := s.LogNormalDB(3)
		if f <= 0 {
			t.Fatal("log-normal factor must be positive")
		}
		sumDB += 10 * math.Log10(f)
	}
	if mean := sumDB / n; math.Abs(mean) > 0.2 {
		t.Fatalf("log-normal dB mean = %v, want ~0", mean)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(77)
	const n = 30000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Gaussian(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Fatalf("variance = %v", variance)
	}
}

func TestPermAndShuffle(t *testing.T) {
	s := New(3)
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatal("shuffle lost elements")
	}
}
