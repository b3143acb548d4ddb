package rf

import (
	"math"
	"testing"

	"wivi/internal/geom"
	"wivi/internal/rng"
)

func TestTable41MatchesPaper(t *testing.T) {
	// Table 4.1 of the paper, verbatim.
	want := map[string]float64{
		"Glass":                   3,
		`1.75" Solid Wood Door`:   6,
		`Interior Hollow Wall 6"`: 9,
		`Concrete Wall 18"`:       18,
		"Reinforced Concrete":     40,
	}
	if len(Table41) != len(want) {
		t.Fatalf("Table41 has %d rows, want %d", len(Table41), len(want))
	}
	for _, m := range Table41 {
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("unexpected material %q", m.Name)
			continue
		}
		if m.OneWayDB != w {
			t.Errorf("%s attenuation = %v dB, want %v dB", m.Name, m.OneWayDB, w)
		}
	}
}

func TestMaterialTransmission(t *testing.T) {
	// 9 dB one-way -> amplitude factor 10^{-9/20}.
	got := HollowWall.TransmissionAmp()
	want := math.Pow(10, -9.0/20)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TransmissionAmp = %v, want %v", got, want)
	}
	if HollowWall.TwoWayDB() != 18 {
		t.Fatalf("TwoWayDB = %v", HollowWall.TwoWayDB())
	}
	if FreeSpace.TransmissionAmp() != 1 {
		t.Fatal("free space must not attenuate")
	}
}

func TestMaterialOrderingForFig76(t *testing.T) {
	// The §7.6 study requires a strict hardness ordering:
	// free space < glass < wood < hollow < concrete (two-way dB).
	mats := EvaluationMaterials
	for i := 1; i < len(mats); i++ {
		if mats[i].TwoWayDB() <= mats[i-1].TwoWayDB() {
			t.Fatalf("material ordering violated: %s (%v dB) <= %s (%v dB)",
				mats[i].Name, mats[i].TwoWayDB(), mats[i-1].Name, mats[i-1].TwoWayDB())
		}
	}
}

func TestWavelengthISM(t *testing.T) {
	lambda := Wavelength(ISMCenterHz)
	// The paper quotes 12.5 cm for 2.4 GHz signals.
	if math.Abs(lambda-0.125) > 0.001 {
		t.Fatalf("lambda = %v m, want ~0.125 m", lambda)
	}
}

func TestSubcarrierFreq(t *testing.T) {
	f0 := SubcarrierFreq(ISMCenterHz, DefaultBandwidthHz, 0, 64)
	if f0 != ISMCenterHz {
		t.Fatalf("center subcarrier freq = %v", f0)
	}
	fHi := SubcarrierFreq(ISMCenterHz, DefaultBandwidthHz, 31, 64)
	fLo := SubcarrierFreq(ISMCenterHz, DefaultBandwidthHz, -32, 64)
	if fHi <= f0 || fLo >= f0 {
		t.Fatal("subcarrier ordering wrong")
	}
	if math.Abs((fHi-fLo)-DefaultBandwidthHz*63/64) > 1 {
		t.Fatalf("span = %v", fHi-fLo)
	}
}

func TestAntennaPattern(t *testing.T) {
	a := NewDirectional(geom.Point{X: 0, Y: 0}, geom.Vec{X: 0, Y: 1})
	front := a.PowerGainDBToward(geom.Point{X: 0, Y: 5})
	if math.Abs(front-6) > 1e-9 {
		t.Fatalf("boresight gain = %v, want 6 dBi", front)
	}
	// Half-power beamwidth: at theta = HPBW the parabolic model gives
	// GainDBi - 12 dB... at theta = HPBW/2 it gives -3 dB.
	side := a.PowerGainDBToward(geom.Point{X: math.Tan(geom.Deg2Rad(35)) * 5, Y: 5})
	if math.Abs(side-(6-3)) > 0.2 {
		t.Fatalf("gain at half HPBW = %v, want ~3 dB", side)
	}
	back := a.PowerGainDBToward(geom.Point{X: 0, Y: -5})
	if math.Abs(back-(6-20)) > 1e-9 {
		t.Fatalf("back gain = %v, want -14 (front-to-back clamp)", back)
	}
	// Zero-distance degenerate case.
	if g := a.PowerGainDBToward(a.Pos); g != a.GainDBi {
		t.Fatalf("gain at own position = %v", g)
	}
}

// TestPowerGainDBAlong checks the pattern's direction form against
// PowerGainDBToward and against the closed form
// GainDBi - min(12·(θ/HPBW)², FrontToBackDB), for constructed antennas
// and for a literal one whose boresight is not unit length.
func TestPowerGainDBAlong(t *testing.T) {
	closed := func(thetaDeg float64) float64 {
		return 6 - math.Min(12*(thetaDeg/70)*(thetaDeg/70), 20)
	}
	dir := NewDirectional(geom.Point{X: 1, Y: -2}, geom.Vec{X: 0, Y: 3})
	long := Antenna{Pos: geom.Point{X: -1, Y: 4}, Boresight: geom.Vec{X: 0, Y: 3}, GainDBi: 6, HPBWDeg: 70, FrontToBackDB: 20}
	up := geom.Vec{X: 0, Y: 1}
	tilt := geom.Deg2Rad(30)
	tilted := NewDirectional(geom.Point{X: 2, Y: 1}, up.Rotate(tilt))
	edge := up.Rotate(geom.Deg2Rad(35)).Scale(4)
	for _, c := range []struct {
		name string
		a    Antenna
		to   geom.Vec // target relative to the antenna
		want float64
	}{
		{"boresight", dir, geom.Vec{X: 0, Y: 7}, 6},
		{"beam edge", dir, edge, 6 - 3},
		{"behind (clamped)", dir, geom.Vec{X: 0.5, Y: -6}, 6 - 20},
		{"zero distance", dir, geom.Vec{}, 6},
		{"omni", NewOmni(geom.Point{X: 3}), geom.Vec{X: -2, Y: -1}, 0},
		{"long boresight", long, geom.Vec{X: 0, Y: 0.2}, 6},
		{"long boresight, beam edge", long, edge, 6 - 3},
		{"long boresight, 50 deg", long, up.Rotate(geom.Deg2Rad(-50)).Scale(9), closed(50)},
		{"long boresight, zero distance", long, geom.Vec{}, 6},
		{"tilted boresight", tilted, up.Rotate(tilt).Scale(3), 6},
		{"tilted, beam edge", tilted, up.Rotate(tilt - geom.Deg2Rad(35)).Scale(2), 6 - 3},
		{"tilted, 60 deg", tilted, up.Rotate(tilt + geom.Deg2Rad(60)).Scale(5), closed(60)},
		{"tilted, behind", tilted, up.Rotate(tilt + math.Pi).Scale(5), 6 - 20},
		{"third-quadrant boresight, zero distance", NewDirectional(geom.Point{}, geom.Vec{X: -1, Y: -1}), geom.Vec{}, 6},
	} {
		got := c.a.PowerGainDBAlong(c.to)
		if toward := c.a.PowerGainDBToward(c.a.Pos.Add(c.to)); math.Abs(got-toward) > 1e-12 {
			t.Errorf("%s: PowerGainDBAlong %v, PowerGainDBToward %v", c.name, got, toward)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: gain %v dB, want %v", c.name, got, c.want)
		}
		// The angle form is scale-invariant in dir: a target a thousand
		// times nearer or farther along the same direction has the same
		// gain.
		for _, k := range []float64{1e-3, 1e3} {
			if g := c.a.PowerGainDBAlong(c.to.Scale(k)); math.Abs(g-got) > 1e-12 {
				t.Errorf("%s: gain %v dB at %g x the distance, %v at 1 x", c.name, g, k, got)
			}
		}
	}

	// The pattern is symmetric about the boresight.
	for _, a := range []Antenna{dir, long, tilted} {
		for _, deg := range []float64{5, 35, 80, 150, 179} {
			phi := geom.Deg2Rad(deg)
			left := a.PowerGainDBAlong(a.Boresight.Rotate(phi))
			right := a.PowerGainDBAlong(a.Boresight.Rotate(-phi))
			if math.Abs(left-right) > 1e-12 || math.Abs(left-closed(deg)) > 1e-12 {
				t.Errorf("boresight %v, %v deg: gain %v dB left, %v right, want %v", a.Boresight, deg, left, right, closed(deg))
			}
		}
	}

	// PowerGainDBToward is exactly PowerGainDBAlong of the offset.
	for _, a := range []Antenna{dir, long, tilted} {
		for _, p := range []geom.Point{{X: 3, Y: 7}, {X: -4.5, Y: 0.3}, {X: 1, Y: -8}, a.Pos} {
			if got, want := a.PowerGainDBToward(p), a.PowerGainDBAlong(p.Sub(a.Pos)); got != want {
				t.Errorf("boresight %v toward %v: PowerGainDBToward %v, PowerGainDBAlong %v", a.Boresight, p, got, want)
			}
		}
	}
}

// TestPatternAngleMatchesAtan2 checks the pattern form's angle against
// math.Atan2 bit for bit: patternAngle calls Atan(cross/dot) on the front
// half-plane and Atan2 elsewhere, so the pattern reads the same θ as
// Atan2 would. The table takes (|dir × b|, dir · b) from directions
// about a directional, a tilted and an omni antenna: on the boresight,
// oblique, grazing, perpendicular (dot = 0 exactly for the upright
// antenna), behind, and the zero vector (dot = +0, and -0 against a
// third-quadrant boresight). Each
// case's gain must also equal the closed form evaluated at the Atan2
// angle. A seeded sweep then covers both signs of cross and dot over
// twelve decades of magnitude.
func TestPatternAngleMatchesAtan2(t *testing.T) {
	up := geom.Vec{X: 0, Y: 1}
	dir := NewDirectional(geom.Point{X: 1, Y: -2}, up)
	tilted := NewDirectional(geom.Point{X: 2, Y: 1}, up.Rotate(geom.Deg2Rad(30)))
	third := NewDirectional(geom.Point{}, geom.Vec{X: -1, Y: -1})
	omni := NewOmni(geom.Point{X: 3})
	for _, c := range []struct {
		name string
		a    Antenna
		to   geom.Vec
	}{
		{"boresight", dir, geom.Vec{X: 0, Y: 4}},
		{"oblique", dir, geom.Vec{X: 2.5, Y: 0.7}},
		{"grazing", dir, geom.Vec{X: -1e6, Y: 1e-9}},
		{"dot = 0", dir, geom.Vec{X: -2}},
		{"behind", dir, geom.Vec{X: 0.3, Y: -4}},
		{"straight behind", dir, geom.Vec{Y: -1}},
		{"zero vector", dir, geom.Vec{}},
		{"tilted, front", tilted, geom.Vec{X: 1, Y: 3}},
		{"tilted, perpendicular", tilted, up.Rotate(geom.Deg2Rad(120))},
		{"tilted, behind", tilted, geom.Vec{X: -1, Y: -3}},
		{"third-quadrant boresight, front", third, geom.Vec{X: -2, Y: -0.5}},
		{"third-quadrant boresight, zero vector (dot = -0)", third, geom.Vec{}},
		{"omni, front", omni, geom.Vec{X: 0.5, Y: 2}},
		{"omni, behind", omni, geom.Vec{X: -0.5, Y: -2}},
		{"omni, zero vector", omni, geom.Vec{}},
	} {
		cross, dot := math.Abs(c.to.Cross(c.a.Boresight)), c.to.Dot(c.a.Boresight)
		theta := math.Atan2(cross, dot)
		if got := patternAngle(cross, dot); math.Float64bits(got) != math.Float64bits(theta) {
			t.Errorf("%s: angle of (%v, %v) is %v, Atan2 gives %v", c.name, cross, dot, got, theta)
		}
		want := c.a.GainDBi
		if c.a.HPBWDeg < 360 && c.to != (geom.Vec{}) {
			deg := geom.Rad2Deg(theta)
			want -= math.Min(12*(deg/c.a.HPBWDeg)*(deg/c.a.HPBWDeg), c.a.FrontToBackDB)
		}
		if got := c.a.PowerGainDBAlong(c.to); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: gain %v dB, closed form at the Atan2 angle %v", c.name, got, want)
		}
	}

	s := rng.New(7)
	for i := 0; i < 100000; i++ {
		cross := math.Copysign(math.Pow(10, s.Uniform(-6, 6)), s.Float64()-0.5)
		dot := math.Copysign(math.Pow(10, s.Uniform(-6, 6)), s.Float64()-0.5)
		if got, want := patternAngle(cross, dot), math.Atan2(cross, dot); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("angle of (%v, %v) is %v, Atan2 gives %v", cross, dot, got, want)
		}
	}
}

func TestOmniAntenna(t *testing.T) {
	a := NewOmni(geom.Point{})
	for _, p := range []geom.Point{{X: 1}, {X: -1}, {Y: -3}, {X: 2, Y: 2}} {
		if g := a.PowerGainDBToward(p); g != 0 {
			t.Fatalf("omni gain = %v toward %v", g, p)
		}
	}
}

func TestPathChannelPhase(t *testing.T) {
	lambda := 0.125
	p := Path{Length: lambda, gain: 2, den: lambda, extra: 1}
	h := p.Channel(lambda)
	// One full wavelength -> phase -2pi -> back to positive real.
	if math.Abs(real(h)-2) > 1e-9 || math.Abs(imag(h)) > 1e-9 {
		t.Fatalf("Channel = %v, want 2+0i", h)
	}
	q := Path{Length: lambda / 2, gain: 1, den: lambda, extra: 1}
	hq := q.Channel(lambda)
	if math.Abs(real(hq)+1) > 1e-9 {
		t.Fatalf("half-wavelength channel = %v, want -1", hq)
	}
}

func TestDirectPathInverseDistance(t *testing.T) {
	lambda := Wavelength(ISMCenterHz)
	tx := NewOmni(geom.Point{X: 0, Y: 0})
	rx1 := NewOmni(geom.Point{X: 0, Y: 2})
	rx2 := NewOmni(geom.Point{X: 0, Y: 4})
	p1 := DirectPath(tx, rx1, 1)
	p2 := DirectPath(tx, rx2, 1)
	if ratio := p1.Amp(lambda) / p2.Amp(lambda); math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("LOS amplitude ratio = %v, want 2 (1/d law)", ratio)
	}
	if p1.Length != 2 || p2.Length != 4 {
		t.Fatalf("path lengths %v, %v", p1.Length, p2.Length)
	}
}

func TestScatterPathInverseD4Power(t *testing.T) {
	// Radar equation: power falls as 1/d^4 for a monostatic geometry, so
	// amplitude falls as 1/d^2.
	lambda := Wavelength(ISMCenterHz)
	dev := NewOmni(geom.Point{X: 0, Y: 0})
	p1 := ScatterPath(dev, dev, geom.Point{X: 0, Y: 3}, 1, 1)
	p2 := ScatterPath(dev, dev, geom.Point{X: 0, Y: 6}, 1, 1)
	if ratio := p1.Amp(lambda) / p2.Amp(lambda); math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("scatter amplitude ratio = %v, want 4 (1/d^2 law)", ratio)
	}
	if p1.Length != 6 {
		t.Fatalf("round-trip length = %v, want 6", p1.Length)
	}
}

func TestFlashDominatesHumanReflection(t *testing.T) {
	// Core premise of §4: the wall flash is vastly stronger than the
	// reflection from a human behind the wall. Check the modeled gap is in
	// the right ballpark (tens of dB).
	lambda := Wavelength(ISMCenterHz)
	tx := NewDirectional(geom.Point{X: -0.3, Y: -1}, geom.Vec{X: 0, Y: 1})
	rx := NewDirectional(geom.Point{X: 0.3, Y: -1}, geom.Vec{X: 0, Y: 1})
	wallY := 0.0
	flash := MirrorPath(tx, rx, wallY, HollowWall.Reflectivity)
	human := ScatterPath(tx, rx, geom.Point{X: 0, Y: 4}, 1.0,
		TwoWayTransmission(HollowWall))
	gapDB := 20 * math.Log10(flash.Amp(lambda)/human.Amp(lambda))
	if gapDB < 18 || gapDB > 80 {
		t.Fatalf("flash-to-human gap = %.1f dB, want within [18, 80] (paper: 18-36 dB wall "+
			"attenuation alone, plus cross-section and spreading)", gapDB)
	}
}

func TestMirrorPathGeometry(t *testing.T) {
	tx := NewOmni(geom.Point{X: -1, Y: -1})
	rx := NewOmni(geom.Point{X: 1, Y: -1})
	p := MirrorPath(tx, rx, 0, 1)
	// Unfolded distance: |(-1,-1) -> (1,1)| = 2*sqrt(2).
	want := 2 * math.Sqrt2
	if math.Abs(p.Length-want) > 1e-9 {
		t.Fatalf("mirror path length = %v, want %v", p.Length, want)
	}
}

func TestMinRangeClamp(t *testing.T) {
	lambda := Wavelength(ISMCenterHz)
	tx := NewOmni(geom.Point{})
	rx := NewOmni(geom.Point{})
	p := DirectPath(tx, rx, 1)
	if a := p.Amp(lambda); math.IsInf(a, 1) || math.IsNaN(a) {
		t.Fatal("zero-distance direct path must be clamped")
	}
	s := ScatterPath(tx, rx, geom.Point{}, 1, 1)
	if a := s.Amp(lambda); math.IsInf(a, 1) || math.IsNaN(a) {
		t.Fatal("zero-distance scatter path must be clamped")
	}
}
