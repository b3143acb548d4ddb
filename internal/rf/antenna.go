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
//
// where theta is the angle between the direction of interest and
// Boresight.
type Antenna struct {
	// Pos is the antenna location in the scene plane.
	Pos geom.Point
	// Boresight is the pointing direction. Only its direction matters:
	// the pattern is the same for any non-zero length.
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
	return a.PowerGainDBAlong(p.Sub(a.Pos))
}

// PowerGainDBAlong returns the pattern gain in dB along dir, a vector of
// any length; PowerGainDBToward(p) is PowerGainDBAlong(p - Pos). It is
// the antenna's Pattern evaluated along dir.
func (a Antenna) PowerGainDBAlong(dir geom.Vec) float64 {
	return a.Pattern().GainDBAlong(dir)
}

// Pattern is an antenna's gain pattern with its per-antenna constants
// folded: the gain along a direction at angle θ (radians) from the
// boresight is GainDBi - min(rolloff·θ², FrontToBackDB), where
// rolloff = 12·(180/(π·HPBWDeg))² takes the degree conversion and the
// beamwidth scaling of the Antenna formula as one coefficient. The
// capture kernel keeps one Pattern per antenna and evaluates it for
// every path, so no division by a constant is left per call.
type Pattern struct {
	boresight   geom.Vec
	gainDBi     float64
	rolloff     float64
	frontToBack float64
	omni        bool
}

// Pattern returns the antenna's pattern form.
func (a Antenna) Pattern() Pattern {
	perRad := 180 / (math.Pi * a.HPBWDeg)
	return Pattern{
		boresight:   a.Boresight,
		gainDBi:     a.GainDBi,
		rolloff:     12 * perRad * perRad,
		frontToBack: a.FrontToBackDB,
		omni:        a.HPBWDeg >= 360,
	}
}

// GainDBAlong returns the pattern gain in dB along dir, a vector of any
// length. The angle from the boresight b is θ = atan2(|dir × b|, dir · b)
// (patternAngle), which is the same for any positive scaling of dir or
// of b, so neither vector is normalized. The zero vector, the antenna's
// own position, gets the peak gain GainDBi.
//
//wivi:hotpath
func (p Pattern) GainDBAlong(dir geom.Vec) float64 {
	// A zero dir against a boresight with both components negative has
	// dir · b = -0, where atan2 reads π: the check keeps θ = 0 there.
	if p.omni || dir == (geom.Vec{}) {
		return p.gainDBi
	}
	theta := patternAngle(math.Abs(dir.Cross(p.boresight)), dir.Dot(p.boresight))
	rolloff := p.rolloff * theta * theta
	if rolloff > p.frontToBack {
		rolloff = p.frontToBack
	}
	return p.gainDBi - rolloff
}

// patternAngle returns math.Atan2(cross, dot) for finite arguments. On
// the front half-plane, dot > 0, Atan2 computes exactly Atan(cross/dot),
// so calling Atan there gives the same bits without Atan2's
// special-case tests. Every moving scatter point the capture kernel
// traces lies behind the wall, in front of all three antennas.
func patternAngle(cross, dot float64) float64 {
	if dot > 0 {
		return math.Atan(cross / dot)
	}
	return math.Atan2(cross, dot)
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
