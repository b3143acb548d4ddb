package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"wivi/internal/rng"
)

func TestConvolveKnown(t *testing.T) {
	x := []float64{1, 2, 3}
	h := []float64{1, 1}
	got := Convolve(x, h)
	want := []float64{1, 3, 5, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Convolve = %v, want %v", got, want)
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil {
		t.Fatal("expected nil for empty x")
	}
	if Convolve([]float64{1}, nil) != nil {
		t.Fatal("expected nil for empty h")
	}
}

// TestConvolveFFTMatchesDirect: the FFT path must agree with the direct
// path for large inputs.
func TestConvolveFFTMatchesDirect(t *testing.T) {
	r := rng.New(5)
	x := make([]float64, 300)
	h := make([]float64, 100)
	for i := range x {
		x[i] = r.Norm()
	}
	for i := range h {
		h[i] = r.Norm()
	}
	// Direct reference.
	ref := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		for j, hv := range h {
			ref[i+j] += xv * hv
		}
	}
	got := Convolve(x, h) // 300*100 = 30000 > 4096 -> FFT path
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-8 {
			t.Fatalf("FFT convolution differs at %d: %v vs %v", i, got[i], ref[i])
		}
	}
}

// TestConvolveCommutative is a property test: x*h == h*x.
func TestConvolveCommutative(t *testing.T) {
	seed := int64(0)
	f := func() bool {
		r := rng.New(seed)
		seed++
		x := make([]float64, 1+r.Intn(50))
		h := make([]float64, 1+r.Intn(50))
		for i := range x {
			x[i] = r.Norm()
		}
		for i := range h {
			h[i] = r.Norm()
		}
		a := Convolve(x, h)
		b := Convolve(h, x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchedFilterPeaksAtTemplate(t *testing.T) {
	// Signal contains the template at a known offset; the matched filter
	// output must peak there.
	tpl := TriangleTemplate(21)
	x := make([]float64, 200)
	const at = 90 // template centered at 90+10
	for i, v := range tpl {
		x[at+i] += v
	}
	out := MatchedFilter(x, tpl)
	peak := Argmax(out)
	wantCenter := at + len(tpl)/2
	if d := peak - wantCenter; d < -1 || d > 1 {
		t.Fatalf("matched filter peak at %d, want ~%d", peak, wantCenter)
	}
}

func TestMatchedFilterLengthAndEmpty(t *testing.T) {
	x := make([]float64, 50)
	tpl := TriangleTemplate(7)
	out := MatchedFilter(x, tpl)
	if len(out) != len(x) {
		t.Fatalf("MatchedFilter len = %d, want %d", len(out), len(x))
	}
	if MatchedFilter(nil, tpl) != nil || MatchedFilter(x, nil) != nil {
		t.Fatal("expected nil outputs for empty inputs")
	}
}

func TestMovingAverageConstancy(t *testing.T) {
	x := []float64{2, 2, 2, 2, 2}
	out := MovingAverage(x, 3)
	for _, v := range out {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("MovingAverage of constant = %v", out)
		}
	}
	// size <= 1 copies
	cp := MovingAverage(x, 1)
	for i := range x {
		if cp[i] != x[i] {
			t.Fatal("size-1 moving average should copy input")
		}
	}
}

func TestMovingAverageReducesVariance(t *testing.T) {
	r := rng.New(9)
	x := make([]float64, 500)
	for i := range x {
		x[i] = r.Norm()
	}
	sm := MovingAverage(x, 9)
	if Variance(sm) >= Variance(x) {
		t.Fatalf("smoothing did not reduce variance: %v >= %v", Variance(sm), Variance(x))
	}
}

func TestDetrend(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	Detrend(x)
	if m := Mean(x); math.Abs(m) > 1e-12 {
		t.Fatalf("detrended mean = %v", m)
	}
	var empty []float64
	Detrend(empty) // must not panic
}

func TestTriangleTemplate(t *testing.T) {
	tpl := TriangleTemplate(5)
	want := []float64{0, 0.5, 1, 0.5, 0}
	for i := range want {
		if math.Abs(tpl[i]-want[i]) > 1e-12 {
			t.Fatalf("TriangleTemplate = %v, want %v", tpl, want)
		}
	}
	if TriangleTemplate(0) != nil {
		t.Fatal("TriangleTemplate(0) should be nil")
	}
	if one := TriangleTemplate(1); len(one) != 1 || one[0] != 1 {
		t.Fatalf("TriangleTemplate(1) = %v", one)
	}
}

func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6}
	got := Decimate(x, 3)
	want := []float64{0, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("Decimate len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Decimate = %v, want %v", got, want)
		}
	}
}

func TestAverageBlocksComplex(t *testing.T) {
	x := []complex128{1, 3, 5, 7, 9} // trailing 9 dropped
	got := AverageBlocksComplex(x, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("AverageBlocksComplex = %v", got)
	}
	same := AverageBlocksComplex(x, 1)
	if len(same) != len(x) {
		t.Fatal("blockSize 1 should copy")
	}
}
