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
	// Boresight is the pointing direction. PowerGainDBToward accepts any
	// length; PowerGainDBAlong needs unit length, which the constructors
	// give.
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
		Boresight:     boresight.Unit(),
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
	a.Boresight = a.Boresight.Unit() // a copy: the receiver is a value
	return a.PowerGainDBAlong(dir, dir.Len())
}

// PowerGainDBAlong is the kernel form of PowerGainDBToward: the pattern
// gain in dB along dir, whose length dist the caller has already
// computed. A path's own length normalizes its direction, so the
// pattern takes no square root. Boresight must be unit length; dist 0
// is the antenna's own position, where the gain is GainDBi.
func (a Antenna) PowerGainDBAlong(dir geom.Vec, dist float64) float64 {
	if dist == 0 || a.HPBWDeg >= 360 {
		return a.GainDBi
	}
	cosang := dir.Dot(a.Boresight) / dist
	cosang = math.Max(-1, math.Min(1, cosang))
	thetaDeg := geom.Rad2Deg(math.Acos(cosang))
	rolloff := 12 * (thetaDeg / a.HPBWDeg) * (thetaDeg / a.HPBWDeg)
	if rolloff > a.FrontToBackDB {
		rolloff = a.FrontToBackDB
	}
	return a.GainDBi - rolloff
}

// AmplitudeGainToward returns the linear amplitude gain in the direction
// of p (sqrt of the linear power gain).
func (a Antenna) AmplitudeGainToward(p geom.Point) float64 {
	return AmplitudeOfDB(a.PowerGainDBToward(p))
}

// AmplitudeOfDB converts a power gain in dB to a linear amplitude gain:
// 10^(db/20), computed as e^(db·ln10/20), which is about five times
// cheaper than math.Pow. It is within 4 ulps of Pow over a directional
// pattern's -14..6 dB range, and within 7 over the -28..12 dB of a path
// through two such antennas, which converts the sum of their gains once.
func AmplitudeOfDB(db float64) float64 {
	return math.Exp(db * (math.Ln10 / 20))
}
