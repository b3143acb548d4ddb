package sdr

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestNewADCValidation(t *testing.T) {
	if _, err := NewADC(1, 1); err == nil {
		t.Fatal("1-bit ADC accepted")
	}
	if _, err := NewADC(12, 0); err == nil {
		t.Fatal("zero full-scale accepted")
	}
	if _, err := NewADC(12, 1); err != nil {
		t.Fatalf("valid ADC rejected: %v", err)
	}
}

func TestADCQuantizeExact(t *testing.T) {
	a, _ := NewADC(4, 8) // LSB = 1
	if a.LSB() != 1 {
		t.Fatalf("LSB = %v", a.LSB())
	}
	c := a.Coder()
	for _, x := range []struct{ v, code float64 }{{3.4, 3}, {-2.6, -3}, {0.5, 1}, {-0.49, 0}} {
		code, clip := c.Code(x.v)
		if clip {
			t.Fatalf("Code(%v) clipped", x.v)
		}
		if code != x.code {
			t.Fatalf("Code(%v) = %v, want %v", x.v, code, x.code)
		}
	}
}

func TestADCSaturation(t *testing.T) {
	a, _ := NewADC(4, 8)
	c := a.Coder()
	code, clip := c.Code(100)
	if !clip {
		t.Fatal("saturation not reported")
	}
	if code != 7 { // max code 2^{3}-1 = 7
		t.Fatalf("clipped code %v, want 7", code)
	}
	code, clip = c.Code(-100)
	if !clip || code != -8 {
		t.Fatalf("negative clip %v (clip=%v), want -8", code, clip)
	}
	if code, clip := c.Code(7.4); clip || code != 7 {
		t.Fatalf("Code(7.4) = %v (clip=%v), want 7 unclipped", code, clip)
	}
}

// TestADCQuantizationErrorBound: within the linear range, the digitized
// value code·LSB is within LSB/2 of the input.
func TestADCQuantizationErrorBound(t *testing.T) {
	a, _ := NewADC(10, 1)
	c := a.Coder()
	half := a.LSB() / 2
	f := func(v float64) bool {
		// Map arbitrary floats into the linear range.
		v = math.Mod(v, 0.9)
		if math.IsNaN(v) {
			return true
		}
		code, clip := c.Code(v)
		if clip {
			return false
		}
		return math.Abs(code*a.LSB()-v) <= half+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestTransmitterLinearRange(t *testing.T) {
	tx := Transmitter{MaxAmp: 2}
	y, clip := tx.Output(complex(1, 1))
	if clip || y != complex(1, 1) {
		t.Fatal("in-range output altered")
	}
	y, clip = tx.Output(complex(30, 40))
	if !clip {
		t.Fatal("over-range output not clipped")
	}
	if math.Abs(cmplx.Abs(y)-2) > 1e-12 {
		t.Fatalf("clipped magnitude = %v, want 2", cmplx.Abs(y))
	}
	// Phase preserved under clipping.
	if math.Abs(cmplx.Phase(y)-cmplx.Phase(complex(30, 40))) > 1e-12 {
		t.Fatal("clipping altered phase")
	}
	if z, c := tx.Output(0); c || z != 0 {
		t.Fatal("zero output mishandled")
	}
}
