package dsp

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"wivi/internal/rng"
)

func TestMeanVarianceKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if m := Mean(x); math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestMedianPercentile(t *testing.T) {
	x := []float64{5, 1, 3}
	if m := Median(x); m != 3 {
		t.Fatalf("Median = %v", m)
	}
	// x must be unmodified.
	if x[0] != 5 || x[1] != 1 || x[2] != 3 {
		t.Fatal("Median modified input")
	}
	y := []float64{0, 10}
	if p := Percentile(y, 50); math.Abs(p-5) > 1e-12 {
		t.Fatalf("P50 = %v", p)
	}
	if p := Percentile(y, 0); p != 0 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(y, 100); p != 10 {
		t.Fatalf("P100 = %v", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestDBConversions(t *testing.T) {
	if d := DB(100); math.Abs(d-20) > 1e-12 {
		t.Fatalf("DB(100) = %v", d)
	}
	if d := DB(0); d != -300 {
		t.Fatalf("DB(0) = %v, want -300 clamp", d)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if m := c.Median(); m != 2 {
		t.Fatalf("Median = %v", m)
	}
	if q := c.Quantile(1); q != 4 {
		t.Fatalf("Q(1) = %v", q)
	}
	if q := c.Quantile(0); q != 1 {
		t.Fatalf("Q(0) = %v", q)
	}
	if xs, _ := c.Points(); len(xs) != 4 {
		t.Fatalf("%d points, want 4", len(xs))
	}
}

// TestCDFMonotoneProperty: a CDF is non-decreasing and maps into [0,1];
// quantile is a right-inverse of At.
func TestCDFMonotoneProperty(t *testing.T) {
	seed := int64(0)
	f := func() bool {
		r := rng.New(seed)
		seed++
		n := 1 + r.Intn(100)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Norm() * 10
		}
		c := NewCDF(samples)
		xs, ps := c.Points()
		if !sort.Float64sAreSorted(xs) {
			return false
		}
		prev := 0.0
		for i, p := range ps {
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
			// At(x_i) must equal p_i at the sample points.
			if math.Abs(c.At(xs[i])-p) > 1e-12 {
				// Duplicate sample values make At jump past p; allow >=.
				if c.At(xs[i]) < p {
					return false
				}
			}
		}
		// Quantile(q) returns a value v with At(v) >= q.
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 1} {
			if c.At(c.Quantile(q)) < q-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Fatal("Argmax(nil) != -1")
	}
	if Argmax([]float64{1, 5, 2}) != 1 {
		t.Fatal("Argmax misplaced")
	}
	// Ties resolve to the first occurrence.
	if Argmax([]float64{3, 3}) != 0 {
		t.Fatal("Argmax tie should pick first")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Fatal("empty MinMax should be zeros")
	}
}
