package sim

import (
	"math"
	"testing"

	"wivi/internal/motion"
	"wivi/internal/nulling"
	"wivi/internal/rf"
)

func testScene(seed int64) *Scene {
	return NewScene(SceneConfig{Seed: seed})
}

func testDevice(t *testing.T, sc *Scene) *Device {
	t.Helper()
	d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestCalibrationValidate(t *testing.T) {
	if err := DefaultCalibration().Validate(); err != nil {
		t.Fatalf("default calibration invalid: %v", err)
	}
	c := DefaultCalibration()
	c.TxMaxAmp = 0.5
	if err := c.Validate(); err == nil {
		t.Fatal("TxMaxAmp < TxRefAmp accepted")
	}
	c = DefaultCalibration()
	c.NumSubcarriers = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero subcarriers accepted")
	}
	c = DefaultCalibration()
	c.BandwidthHz = c.CenterHz * 2
	if err := c.Validate(); err == nil {
		t.Fatal("bandwidth > carrier accepted")
	}
}

func TestSceneConstruction(t *testing.T) {
	sc := testScene(3)
	if !sc.HasWall() {
		t.Fatal("default scene should have a wall")
	}
	if len(sc.Clutter) != 9 { // 6 behind + 3 in front
		t.Fatalf("clutter count = %d", len(sc.Clutter))
	}
	behind := 0
	for _, c := range sc.Clutter {
		if c.BehindWall {
			behind++
			if !sc.Room.Contains(c.Pos) {
				t.Fatalf("room clutter outside room: %v", c.Pos)
			}
		} else if c.Pos.Y >= sc.WallY {
			t.Fatalf("front clutter behind wall: %v", c.Pos)
		}
	}
	if behind != 6 {
		t.Fatalf("behind-wall clutter = %d", behind)
	}
	// Room matches the paper's first conference room (7 x 4 m).
	if math.Abs(sc.Room.Width()-7) > 1e-9 || math.Abs(sc.Room.Height()-4) > 1e-9 {
		t.Fatalf("room %v x %v", sc.Room.Width(), sc.Room.Height())
	}
}

func TestSceneDeterminism(t *testing.T) {
	a := testScene(5)
	b := testScene(5)
	for i := range a.Clutter {
		if a.Clutter[i] != b.Clutter[i] {
			t.Fatal("same seed produced different scenes")
		}
	}
}

func TestAddWalkerStaysInRoom(t *testing.T) {
	sc := testScene(7)
	h, err := sc.AddWalker(10)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0.0; tt < 10; tt += 0.25 {
		p := h.Torso.At(tt)
		// Sway may exceed the walls marginally; allow 0.3 m.
		if p.X < sc.Room.Min.X-0.3 || p.X > sc.Room.Max.X+0.3 ||
			p.Y < sc.Room.Min.Y-0.3 || p.Y > sc.Room.Max.Y+0.3 {
			t.Fatalf("walker escaped: %v", p)
		}
	}
	if len(h.Parts) != 4 {
		t.Fatalf("walker has %d scattering parts, want 4 (torso, shoulder, hip, limb)", len(h.Parts))
	}
	var total float64
	for _, p := range h.Parts {
		total += p.RCS
	}
	if total < h.RCS || total > h.RCS+0.25 {
		t.Fatalf("parts RCS sums to %v, torso RCS %v", total, h.RCS)
	}
}

func TestAddGestureSubjectGeometry(t *testing.T) {
	sc := testScene(9)
	bits := []motion.Bit{motion.Bit0}
	h, err := sc.AddGestureSubject(4, bits, motion.DefaultGestureParams(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p0 := h.Torso.At(0)
	if math.Abs(p0.Y-4) > 0.1 {
		t.Fatalf("subject at y=%v, want ~4", p0.Y)
	}
	// During the first step (bit 0 = forward first) y must decrease.
	p1 := h.Torso.At(1 + motion.DefaultGestureParams().StepDur)
	if p1.Y >= p0.Y-0.3 {
		t.Fatalf("forward step did not approach wall: %v -> %v", p0.Y, p1.Y)
	}
}

func TestDeviceAntennaLayout(t *testing.T) {
	sc := testScene(11)
	d := testDevice(t, sc)
	if d.Rx.Pos.Y != -1 {
		t.Fatalf("device standoff: rx at %v", d.Rx.Pos)
	}
	if d.Tx1.Pos.X >= d.Tx2.Pos.X {
		t.Fatal("tx antennas not ordered")
	}
	if d.NumSubcarriers() != DefaultCalibration().NumSubcarriers {
		t.Fatal("subcarrier count mismatch")
	}
	if math.Abs(d.Wavelength()-0.125) > 0.001 {
		t.Fatalf("wavelength %v", d.Wavelength())
	}
}

func TestMeasureSingleAccuracy(t *testing.T) {
	sc := testScene(13)
	d := testDevice(t, sc)
	est, err := d.MeasureSingle(1)
	if err != nil {
		t.Fatal(err)
	}
	truth := d.frozen[0]
	var errPwr, sigPwr float64
	for k := range est {
		e := est[k] - truth[k]
		errPwr += real(e)*real(e) + imag(e)*imag(e)
		sigPwr += real(truth[k])*real(truth[k]) + imag(truth[k])*imag(truth[k])
	}
	snrDB := 10 * math.Log10(sigPwr/errPwr)
	// Stage-1 estimation is noise-bound in the low-20s dB; the initial
	// null inherits this and iterative nulling (at boosted power) deepens
	// it to the ~40 dB of Fig. 7-7 (§4.1.3).
	if snrDB < 20 {
		t.Fatalf("stage-1 estimation SNR %.1f dB, want >= 20", snrDB)
	}
	if _, err := d.MeasureSingle(3); err == nil {
		t.Fatal("invalid antenna accepted")
	}
}

func TestNullingOnDeviceAchievesPaperDepth(t *testing.T) {
	sc := testScene(17)
	d := testDevice(t, sc)
	res, err := nulling.Run(d, nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := res.AchievedNullingDB()
	// Fig. 7-7: nulling between ~25 and ~55 dB, median ~40.
	if db < 25 || db > 65 {
		t.Fatalf("achieved nulling %.1f dB outside [25, 65]", db)
	}
}

func TestBoostWithoutNullingSaturatesADC(t *testing.T) {
	// The flash effect (§4.1.2): at stage-1 gain, boosting the transmit
	// power 12 dB without nulling drives the ADC into saturation. With
	// nulling, the same boost is safe.
	sc := testScene(19)
	d := testDevice(t, sc)
	zero := make([]complex128, d.NumSubcarriers())
	_, clippedFrac, err := d.MeasureCombinedFixedGain(zero, d.Cal.BoostDB)
	if err != nil {
		t.Fatal(err)
	}
	// Only rails whose I/Q component exceeds full scale clip, so the
	// fraction is well below 1; any clipping corrupts OFDM estimation.
	if clippedFrac < 0.2 {
		t.Fatalf("un-nulled boost clipped only %.0f%% of subcarriers", 100*clippedFrac)
	}
	// Null first, then boost at the same fixed gain: no saturation.
	res, err := nulling.Run(d, nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, clippedFrac, err = d.MeasureCombinedFixedGain(res.P, d.Cal.BoostDB)
	if err != nil {
		t.Fatal(err)
	}
	if clippedFrac > 0 {
		t.Fatalf("nulled boost still clipped %.0f%%", 100*clippedFrac)
	}
}

func TestCaptureShapeAndMotionSensitivity(t *testing.T) {
	sc := testScene(23)
	if _, err := sc.AddWalker(5); err != nil {
		t.Fatal(err)
	}
	d := testDevice(t, sc)
	res, err := nulling.Run(d, nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	got, err := d.Capture(res.P, d.Cal.BoostDB, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != d.NumSubcarriers() || len(got[0]) != n {
		t.Fatalf("capture shape %dx%d", len(got), len(got[0]))
	}
	// The walker's motion must dominate the nulled residual: compare the
	// time variance of the subcarrier-combined channel against an
	// empty-room capture (combining averages the independent noise down).
	empty := NewScene(SceneConfig{Seed: 23})
	dEmpty := testDevice(t, empty)
	resE, err := nulling.Run(dEmpty, nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := dEmpty.Capture(resE.P, dEmpty.Cal.BoostDB, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if vw, ve := timeVariance(meanAcrossSubs(got)), timeVariance(meanAcrossSubs(gotE)); vw < 10*ve {
		t.Fatalf("walker variance %v not >> empty-room %v", vw, ve)
	}
}

// meanAcrossSubs averages the per-subcarrier series into one stream.
func meanAcrossSubs(x [][]complex128) []complex128 {
	n := len(x[0])
	out := make([]complex128, n)
	for _, sub := range x {
		for i, v := range sub {
			out[i] += v
		}
	}
	inv := complex(1/float64(len(x)), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

func timeVariance(x []complex128) float64 {
	var mean complex128
	for _, v := range x {
		mean += v
	}
	mean /= complex(float64(len(x)), 0)
	var s float64
	for _, v := range x {
		d := v - mean
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s / float64(len(x))
}

func TestCaptureValidation(t *testing.T) {
	sc := testScene(29)
	d := testDevice(t, sc)
	if _, err := d.Capture(nil, 12, 0, 10); err == nil {
		t.Fatal("bad precoding accepted")
	}
	p := make([]complex128, d.NumSubcarriers())
	if _, err := d.Capture(p, 12, 0, 0); err == nil {
		t.Fatal("zero-length capture accepted")
	}
	if _, err := d.MeasureCombined(nil, 12); err == nil {
		t.Fatal("bad combined precoding accepted")
	}
}

func TestTruthAngles(t *testing.T) {
	sc := testScene(31)
	// A subject walking straight toward the device at 1 m/s.
	d := testDevice(t, sc)
	start := sc.Room.Center()
	toward := d.Pos()
	w, err := motion.PathThrough(1.0, start, toward)
	if err != nil {
		t.Fatal(err)
	}
	sc.Humans = append(sc.Humans, &Human{Torso: w, RCS: 1, Name: "straight"})
	// The walk covers ~3.1 m at 1 m/s; sample well past arrival
	// (SampleT = 3.2 ms, so 1200 samples = 3.84 s).
	tr := d.Truth(0, 1200)
	if tr.NumHumans() != 1 {
		t.Fatal("truth lost the human")
	}
	th, ok := tr.PaperAngleDeg(0, 300) // t ~ 0.96 s, mid-walk
	if !ok {
		t.Fatal("angle undefined mid-walk")
	}
	if math.Abs(th-90) > 1 {
		t.Fatalf("straight-approach angle %v, want 90", th)
	}
	obs, ok := tr.ObservedAngleDeg(0, 300, 1.0)
	if !ok || math.Abs(obs-90) > 1 {
		t.Fatalf("observed angle %v", obs)
	}
	// Assumed speed double the real one halves sin(theta).
	obs2, _ := tr.ObservedAngleDeg(0, 300, 2.0)
	if math.Abs(obs2-30) > 2 {
		t.Fatalf("speed-mismatch angle %v, want ~30", obs2)
	}
	// After arrival the human is stationary: angle undefined.
	if _, ok := tr.PaperAngleDeg(0, 1199); ok {
		t.Fatal("stationary angle should be undefined")
	}
	if tr.MovingAt(0, 1199) {
		t.Fatal("human reported moving after arrival")
	}
}

func TestFreeSpaceSceneHasNoFlash(t *testing.T) {
	walled := NewScene(SceneConfig{Seed: 37})
	free := NewScene(SceneConfig{Seed: 37, Wall: rf.FreeSpace})
	dw := testDevice(t, walled)
	df := testDevice(t, free)
	// The static channel without the wall must be much weaker (no flash).
	pw := channelPower(dw.static[0])
	pf := channelPower(df.static[0])
	if pf >= pw/4 {
		t.Fatalf("free-space static power %v not << walled %v", pf, pw)
	}
}

func channelPower(h []complex128) float64 {
	var s float64
	for _, v := range h {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(h))
}

func TestDeviceConfigValidation(t *testing.T) {
	sc := testScene(41)
	bad := DefaultCalibration()
	bad.ADCBits = 0
	if _, err := NewDevice(sc, bad, DeviceConfig{}); err == nil {
		t.Fatal("invalid calibration accepted")
	}
}
