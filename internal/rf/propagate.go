package rf

import (
	"math"
	"math/cmplx"

	"wivi/internal/geom"
)

// Physical constants and Wi-Fi band parameters.
const (
	// C is the speed of light in m/s.
	C = 299792458.0
	// ISMCenterHz is the 2.4 GHz ISM band center frequency used by Wi-Vi.
	ISMCenterHz = 2.4e9
	// DefaultBandwidthHz is the prototype's signal bandwidth (§7.1: the
	// USRPs cannot stream 20 MHz in real time, so Wi-Vi uses 5 MHz).
	DefaultBandwidthHz = 5e6
	// MinRange guards the near-field singularity of the path-gain
	// formulas: distances are clamped to this value (meters).
	MinRange = 0.25
)

// Wavelength returns the wavelength in meters for frequency f in Hz.
func Wavelength(f float64) float64 { return C / f }

// SubcarrierFreq returns the RF frequency of OFDM subcarrier k (centered:
// k in [-N/2, N/2)) for the given center frequency and total bandwidth
// across n subcarriers.
func SubcarrierFreq(centerHz, bandwidthHz float64, k, n int) float64 {
	spacing := bandwidthHz / float64(n)
	return centerHz + float64(k)*spacing
}

// Path is one propagation path contributing to a channel: a total
// geometric length and the factors of its amplitude that do not depend
// on the wavelength. The complex channel contribution at wavelength
// lambda is Amp(lambda) * e^{-j 2 pi Length / lambda}. A path's
// geometry and antenna gains are evaluated once, when it is built, and
// serve every wavelength.
type Path struct {
	// Length is the total path length in meters.
	Length float64
	// gain is the product of both antennas' amplitude gains along the
	// path, times sqrt(rcs/4π) for a point scatterer.
	gain float64
	// den is the spreading denominator: 4π·d, or 4π·d1·d2 for a point
	// scatterer.
	den float64
	// extra multiplies the amplitude: obstruction transmission and
	// reflection coefficients.
	extra float64
}

// Amp returns the path's linear amplitude gain at the given wavelength:
// antenna gains, spreading loss, transmission and reflection
// coefficients. It combines them as ((gain·lambda)/den)·extra: the
// static sums' bits depend on that order (internal/sim's
// TestStaticSumsMatchPerSubcarrierReference).
func (p Path) Amp(lambda float64) float64 {
	return p.gain * lambda / p.den * p.extra
}

// Channel returns the path's complex baseband channel coefficient at the
// given wavelength.
func (p Path) Channel(lambda float64) complex128 {
	phase := -2 * math.Pi * p.Length / lambda
	return cmplx.Rect(p.Amp(lambda), phase)
}

// DirectPath returns the line-of-sight path between a transmit and a
// receive antenna: Friis spreading with both antenna patterns applied.
// extraAmp multiplies the amplitude (e.g. obstruction transmission).
func DirectPath(tx, rx Antenna, extraAmp float64) Path {
	d := math.Max(tx.Pos.Dist(rx.Pos), MinRange)
	return Path{
		Length: d,
		gain:   tx.AmplitudeGainToward(rx.Pos) * rx.AmplitudeGainToward(tx.Pos),
		den:    4 * math.Pi * d,
		extra:  extraAmp,
	}
}

// MirrorPath returns the specular "flash" reflection off a large planar
// obstruction (the wall). The wall acts as a mirror, so the reflected
// field follows image theory: spreading loss over the total unfolded
// distance (Tx -> wall -> Rx) rather than a point-scatterer product. This
// is what makes the flash orders of magnitude stronger than reflections
// from objects behind the wall (§4).
//
// wallY is the y-coordinate of the wall plane (the wall is parallel to
// the x axis in scene coordinates).
func MirrorPath(tx, rx Antenna, wallY, reflectivity float64) Path {
	// Image of the receiver across the wall plane.
	img := geom.Point{X: rx.Pos.X, Y: 2*wallY - rx.Pos.Y}
	d := math.Max(tx.Pos.Dist(img), MinRange)
	// Specular point on the wall for antenna pattern evaluation.
	t := (wallY - tx.Pos.Y) / (img.Y - tx.Pos.Y)
	spec := geom.Point{X: tx.Pos.X + t*(img.X-tx.Pos.X), Y: wallY}
	return Path{
		Length: d,
		gain:   tx.AmplitudeGainToward(spec) * rx.AmplitudeGainToward(spec),
		den:    4 * math.Pi * d,
		extra:  reflectivity,
	}
}

// ScatterPath returns a bistatic point-scatterer path
// (Tx -> scatterer -> Rx) following the radar equation: the received
// amplitude is
//
//	sqrt(Gtx * Grx * rcs / (4 pi)) * lambda / ((4 pi) * d1 * d2)
//
// times any transmission factor (e.g. traversing the wall twice).
// This models both moving humans and static clutter behind the wall.
func ScatterPath(tx, rx Antenna, at geom.Point, rcs, extraAmp float64) Path {
	d1 := math.Max(tx.Pos.Dist(at), MinRange)
	d2 := math.Max(rx.Pos.Dist(at), MinRange)
	gt := tx.AmplitudeGainToward(at)
	gr := rx.AmplitudeGainToward(at)
	return Path{
		Length: d1 + d2,
		gain:   gt * gr * math.Sqrt(rcs/(4*math.Pi)),
		den:    4 * math.Pi * d1 * d2,
		extra:  extraAmp,
	}
}

// TwoWayTransmission returns the amplitude factor for traversing the
// obstruction into the scene and back out.
func TwoWayTransmission(m Material) float64 {
	a := m.TransmissionAmp()
	return a * a
}
