// Package sdr models the software-radio front end of the Wi-Vi prototype
// (USRP N210 with SBX daughterboards, §7.1): a transmitter with a limited
// linear range and an N-bit ADC whose saturation is the root cause of the
// "flash effect". The receive gain and thermal noise ahead of the ADC are
// applied by internal/sim's measurements.
//
// Amplitudes are tracked in normalized linear units; the calibration in
// internal/sim maps them onto the paper's operating point (20 mW linear
// transmit range vs. Wi-Fi's 100 mW limit, 12 dB nulling boost).
package sdr

import (
	"fmt"
	"math"
	"math/cmplx"
)

// ADC is an N-bit quantizer with saturation. Real and imaginary parts are
// quantized independently, as in an I/Q receiver.
type ADC struct {
	// Bits is the resolution per I/Q rail (the USRP N210 digitizes at
	// 14 bits; effective resolution after the FPGA chain is ~12).
	Bits int
	// FullScale is the maximum representable amplitude per rail. Inputs
	// beyond it clip.
	FullScale float64
}

// NewADC returns an ADC with the given resolution and full-scale.
func NewADC(bits int, fullScale float64) (ADC, error) {
	if bits < 2 || bits > 24 {
		return ADC{}, fmt.Errorf("sdr: ADC bits %d out of range [2,24]", bits)
	}
	if fullScale <= 0 {
		return ADC{}, fmt.Errorf("sdr: ADC full scale must be positive, got %v", fullScale)
	}
	return ADC{Bits: bits, FullScale: fullScale}, nil
}

// LSB returns the quantization step.
func (a ADC) LSB() float64 {
	return a.FullScale / float64(int64(1)<<(a.Bits-1))
}

// Coder is the ADC's rail quantizer with its constants hoisted: the
// reciprocal of the LSB and the code range. A measurement builds one and
// codes every rail through it, so no division is left per rail; it is
// the one place a code is rounded and clamped.
type Coder struct {
	invLSB  float64
	maxCode float64
}

// Coder returns the ADC's rail quantizer.
func (a ADC) Coder() Coder {
	return Coder{
		invLSB:  1 / a.LSB(),
		maxCode: float64(int64(1)<<(a.Bits-1)) - 1,
	}
}

// Code returns the ADC code of a rail value v, v/LSB rounded half away
// from zero and clamped to [-2^(Bits-1), 2^(Bits-1) - 1], and whether it
// clamped. It multiplies by 1/LSB, which equals dividing by the LSB
// whenever the LSB is a power of two, as at the default calibration. The
// code is a whole number held in a float64; code·LSB is the digitized
// value.
func (c Coder) Code(v float64) (float64, bool) {
	code := math.Round(v * c.invLSB)
	if code > c.maxCode {
		return c.maxCode, true
	}
	if code < -c.maxCode-1 {
		return -c.maxCode - 1, true
	}
	return code, false
}

// Transmitter models the USRP transmit chain: output amplitude is linear
// up to MaxAmp and hard-clips beyond it (§7.5: the USRP linear transmit
// range is ~20 mW; beyond it the signal starts being clipped).
type Transmitter struct {
	// MaxAmp is the maximum linear output amplitude.
	MaxAmp float64
}

// Output clips the requested amplitude into the linear range; the second
// return reports whether clipping occurred.
func (t Transmitter) Output(x complex128) (complex128, bool) {
	m := cmplx.Abs(x)
	if m <= t.MaxAmp || m == 0 {
		return x, false
	}
	scale := complex(t.MaxAmp/m, 0)
	return x * scale, true
}
