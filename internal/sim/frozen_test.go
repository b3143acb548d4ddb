package sim

import (
	"math"
	"math/cmplx"
	"reflect"
	"slices"
	"testing"

	"wivi/internal/geom"
	"wivi/internal/nulling"
	"wivi/internal/rf"
)

// referenceStatic is the per-subcarrier static sum the device computed
// before it built each antenna's path list once: at every subcarrier it
// evaluates each path's geometry, both pattern gains and its amplitude
// again, in rf's former per-wavelength forms, and adds the paths in the
// same order (the direct leak, the wall flash and the back wall, then
// the clutter in scene order).
func referenceStatic(d *Device, ant int) []complex128 {
	txa, rx, sc := d.txAntenna(ant), d.Rx, d.scene
	channel := func(length, amp, lambda float64) complex128 {
		return cmplx.Rect(amp, -2*math.Pi*length/lambda)
	}
	direct := func(lambda, extra float64) complex128 {
		dist := math.Max(txa.Pos.Dist(rx.Pos), rf.MinRange)
		amp := txa.AmplitudeGainToward(rx.Pos) * rx.AmplitudeGainToward(txa.Pos) *
			lambda / (4 * math.Pi * dist) * extra
		return channel(dist, amp, lambda)
	}
	mirror := func(wallY, lambda, reflectivity float64) complex128 {
		img := geom.Point{X: rx.Pos.X, Y: 2*wallY - rx.Pos.Y}
		dist := math.Max(txa.Pos.Dist(img), rf.MinRange)
		t := (wallY - txa.Pos.Y) / (img.Y - txa.Pos.Y)
		spec := geom.Point{X: txa.Pos.X + t*(img.X-txa.Pos.X), Y: wallY}
		amp := txa.AmplitudeGainToward(spec) * rx.AmplitudeGainToward(spec) *
			lambda / (4 * math.Pi * dist) * reflectivity
		return channel(dist, amp, lambda)
	}
	scatter := func(at geom.Point, lambda, rcs, extra float64) complex128 {
		d1 := math.Max(txa.Pos.Dist(at), rf.MinRange)
		d2 := math.Max(rx.Pos.Dist(at), rf.MinRange)
		amp := txa.AmplitudeGainToward(at) * rx.AmplitudeGainToward(at) * math.Sqrt(rcs/(4*math.Pi)) *
			lambda / (4 * math.Pi * d1 * d2) * extra
		return channel(d1+d2, amp, lambda)
	}
	out := make([]complex128, len(d.lambdas))
	for k, lambda := range d.lambdas {
		var h complex128
		h += direct(lambda, 1)
		if sc.HasWall() {
			h += mirror(sc.WallY, lambda, sc.Wall.Reflectivity)
			h += mirror(sc.Room.Max.Y, lambda, 0.4*sc.TwoWayWallAmp())
		}
		for _, c := range sc.Clutter {
			extra := 1.0
			if c.BehindWall {
				extra = sc.TwoWayWallAmp()
			}
			h += scatter(c.Pos, lambda, c.RCS, extra)
		}
		out[k] = h
	}
	return out
}

// TestStaticSumsMatchPerSubcarrierReference: the static sums, built from
// each antenna's path list once, equal the per-subcarrier reference bit
// for bit, on 10 seeds behind every wall material, free space (no wall,
// so no mirror paths) included.
func TestStaticSumsMatchPerSubcarrierReference(t *testing.T) {
	walls := append(slices.Clone(rf.EvaluationMaterials), rf.Table41...)
	for _, wall := range walls {
		for seed := int64(1); seed <= 10; seed++ {
			d, err := NewDevice(NewScene(SceneConfig{Seed: seed, Wall: wall}), DefaultCalibration(), DeviceConfig{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for ant := 1; ant <= 2; ant++ {
				want := referenceStatic(d, ant)
				for k, got := range d.static[ant-1] {
					if math.Float64bits(real(got)) != math.Float64bits(real(want[k])) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(want[k])) {
						t.Fatalf("%s, seed %d, antenna %d, subcarrier %d: static sum %v, reference %v",
							wall.Name, seed, ant, k, got, want[k])
					}
				}
			}
		}
	}
}

// TestSoundingsAllocateOnlyTheirEstimate: the device synthesizes the
// frozen nulling scene and sets the stage-1 gain when it is built, so a
// sounding allocates only the estimate it returns.
func TestSoundingsAllocateOnlyTheirEstimate(t *testing.T) {
	sc := testScene(13)
	if _, err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	d := testDevice(t, sc)
	res, err := nulling.Run(d, nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sound func() error
	}{
		{"MeasureSingle", func() error { _, err := d.MeasureSingle(2); return err }},
		{"MeasureCombined", func() error { _, err := d.MeasureCombined(res.P, d.Cal.BoostDB); return err }},
		{"MeasureCombinedFixedGain", func() error { _, _, err := d.MeasureCombinedFixedGain(res.P, d.Cal.BoostDB); return err }},
	} {
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = c.sound() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs != 1 {
			t.Errorf("%s makes %v allocations, want 1 (its estimate)", c.name, allocs)
		}
	}
}

// TestLateSubjectUnseen: a device measures only the subjects its scene
// held when it was built, the ones it nulled against. A walker added to
// the scene afterwards moves neither its nulling nor its capture: both
// equal, bit for bit, those of a device built on a same-seed scene that
// never had the walker.
func TestLateSubjectUnseen(t *testing.T) {
	const n = 200
	run := func(late bool) (*nulling.Result, [][]complex128) {
		sc := testScene(11)
		if _, err := sc.AddWalker(2); err != nil {
			t.Fatal(err)
		}
		d := testDevice(t, sc)
		if late {
			if _, err := sc.AddWalker(2); err != nil {
				t.Fatal(err)
			}
		}
		res, err := nulling.Run(d, nulling.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Capture(res.P, d.Cal.BoostDB, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		return res, got
	}
	wantRes, want := run(false)
	gotRes, got := run(true)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("nulling with a walker added after the build differs from nulling without it")
	}
	diff, total := 0, 0
	for k := range want {
		for i := range want[k] {
			total++
			if got[k][i] != want[k][i] {
				diff++
			}
		}
	}
	if diff > 0 {
		t.Errorf("capture with a walker added after the build differs in %d of %d values from the capture without it", diff, total)
	}
}
