package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wivi/internal/detect"
	"wivi/internal/isar"
	"wivi/internal/motion"
	"wivi/internal/sim"
)

// Compile-time check: the physical simulation implements the front end.
var _ FrontEnd = (*sim.Device)(nil)

func newSimDevice(t *testing.T, seed int64, build func(*sim.Scene)) (*Device, *sim.Device) {
	t.Helper()
	sc := sim.NewScene(sim.SceneConfig{Seed: seed})
	if build != nil {
		build(sc)
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := New(fe, DefaultConfig(fe))
	if err != nil {
		t.Fatal(err)
	}
	return dev, fe
}

// TestNewProcessorShared: isar.NewProcessor returns one processor per
// distinct Config, so every device of one geometry shares its steering
// tables and scratch pool. Four devices on that one processor, tracking
// concurrently (run it under -race), must give the same images as four
// identically seeded devices tracking one after another.
func TestNewProcessorShared(t *testing.T) {
	cfg := isar.DefaultConfig()
	a, err := isar.NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := isar.NewProcessor(cfg); err != nil || b != a {
		t.Fatalf("equal configs gave %p and %p (err %v)", a, b, err)
	}
	cfg.Hop++
	if c, err := isar.NewProcessor(cfg); err != nil || c == a || c.Config() != cfg {
		t.Fatalf("config %+v got a shared or mismatched processor (err %v)", cfg, err)
	}

	const devices = 4
	build := func() []*Device {
		devs := make([]*Device, devices)
		for i := range devs {
			devs[i] = newWalkerDevice(t, int64(11+i))
			devs[i].cfg.FrameWorkers = 2
		}
		return devs
	}
	sequential, concurrent := build(), build()
	for _, d := range append(sequential, concurrent...) {
		if d.proc != sequential[0].proc {
			t.Fatal("devices of one geometry hold different processors")
		}
	}
	want := make([]*isar.Image, devices)
	for i, d := range sequential {
		if want[i], _, err = d.TrackCtx(context.Background(), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*isar.Image, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for i, d := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = d.TrackCtx(context.Background(), 0, 1)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("device %d: concurrent image differs from the sequential one", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil front end accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeTracking.String() != "tracking" || ModeGesture.String() != "gesture" {
		t.Fatal("mode strings")
	}
}

// TestObservePerRequestMode pins the mode-threading contract: the mode
// arrives as request data and selects only the decode stage — tracking
// observations carry no gesture result, gesture observations do, and the
// streamed form agrees with batch.
func TestObservePerRequestMode(t *testing.T) {
	bits := []motion.Bit{motion.Bit0}
	var duration float64
	build := func() *Device {
		dev, _ := newSimDevice(t, 7, func(sc *sim.Scene) {
			params := motion.DefaultGestureParams()
			if _, err := sc.AddGestureSubject(4, bits, params, 0, 1.5); err != nil {
				t.Fatal(err)
			}
			duration = motion.MessageDuration(len(bits), params, 1.5) + 1
		})
		return dev
	}
	ctx := context.Background()

	track, err := build().Observe(ctx, TrackRequest{Mode: ModeTracking, Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	if track.Mode != ModeTracking || track.Gestures != nil {
		t.Fatalf("tracking observation: mode %v, gestures %v", track.Mode, track.Gestures)
	}
	if track.Image == nil || track.Trace == nil {
		t.Fatal("tracking observation missing image or trace")
	}

	gest, err := build().Observe(ctx, TrackRequest{Mode: ModeGesture, Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	if gest.Mode != ModeGesture || gest.Gestures == nil {
		t.Fatalf("gesture observation: mode %v, gestures %v", gest.Mode, gest.Gestures)
	}
	if len(gest.Gestures.Bits) != 1 || gest.Gestures.Bits[0] != bits[0] {
		t.Fatalf("decoded bits %v, want %v", gest.Gestures.Bits, bits)
	}
	// Same request as a fresh identical device's batch Observe, but
	// streamed: byte-identical image, same decoded message.
	st, err := build().ObserveStream(ctx, TrackRequest{Mode: ModeGesture, Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	sobs, err := st.Observation()
	if err != nil {
		t.Fatal(err)
	}
	if sobs.Mode != ModeGesture {
		t.Fatalf("stream mode %v", sobs.Mode)
	}
	if !reflect.DeepEqual(sobs.Image, gest.Image) {
		t.Fatal("streamed gesture observation image differs from batch Observe")
	}
	if !reflect.DeepEqual(sobs.Gestures, gest.Gestures) {
		t.Fatal("streamed gesture decode differs from batch Observe")
	}
}

func TestCaptureTraceAutoNulls(t *testing.T) {
	dev, _ := newSimDevice(t, 2, nil)
	if dev.NullingResult() != nil {
		t.Fatal("nulling result before Null")
	}
	tr, err := dev.CaptureTrace(0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dev.NullingResult() == nil {
		t.Fatal("auto-null did not run")
	}
	if tr.Samples() < 100 {
		t.Fatalf("trace samples = %d", tr.Samples())
	}
	if d := float64(tr.Samples()) * tr.SampleT; math.Abs(d-1.0) > 0.05 {
		t.Fatalf("trace duration = %v", d)
	}
	if _, err := dev.CaptureTrace(0, -1); err == nil {
		t.Fatal("negative duration accepted")
	}
}

// TestTrackSingleWalkerEndToEnd is the Fig. 5-2 integration test: a
// single walker behind a hollow wall must produce an angle-time image
// whose dominant non-DC angle tracks the ground-truth sign (positive
// approaching, negative receding).
func TestTrackSingleWalkerEndToEnd(t *testing.T) {
	var fe *sim.Device
	dev, fe := newSimDevice(t, 42, func(sc *sim.Scene) {
		if _, err := sc.AddWalker(8); err != nil {
			t.Fatal(err)
		}
	})
	img, tr, err := dev.Track(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if img.NumFrames() < 40 {
		t.Fatalf("only %d frames", img.NumFrames())
	}
	truth := fe.Truth(0, tr.Samples())

	agree, total := 0, 0
	cfg := dev.Config().ISAR
	for f := 0; f < img.NumFrames(); f++ {
		// Center sample index of this frame.
		center := f*cfg.Hop + cfg.Window/2
		if center >= tr.Samples() {
			break
		}
		truthAngle, ok := truth.ObservedAngleDeg(0, center, cfg.Velocity)
		if !ok || math.Abs(truthAngle) < 25 {
			continue // ambiguous frames: stationary or near-perpendicular
		}
		angles := img.DominantAngles(f, 1, 8)
		if len(angles) == 0 {
			continue
		}
		total++
		if (angles[0] > 0) == (truthAngle > 0) {
			agree++
		}
	}
	if total < 10 {
		t.Fatalf("too few comparable frames: %d", total)
	}
	if frac := float64(agree) / float64(total); frac < 0.6 {
		t.Fatalf("angle sign agreement %.0f%% (%d/%d), want >= 60%%",
			100*frac, agree, total)
	}
}

// TestGestureRoundTripThroughWall is the Fig. 6-1/6-3 integration test:
// a subject 4 m behind a hollow wall transmits '0','1' and the pipeline
// must decode exactly those bits.
func TestGestureRoundTripThroughWall(t *testing.T) {
	bits := []motion.Bit{motion.Bit0, motion.Bit1}
	var duration float64
	dev, _ := newSimDevice(t, 7, func(sc *sim.Scene) {
		params := motion.DefaultGestureParams()
		if _, err := sc.AddGestureSubject(4, bits, params, 0, 1.5); err != nil {
			t.Fatal(err)
		}
		duration = motion.MessageDuration(len(bits), params, 1.5) + 1
	})
	obs, err := dev.Observe(context.Background(), TrackRequest{Mode: ModeGesture, Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	res := obs.Gestures
	if len(res.Bits) != len(bits) {
		t.Fatalf("decoded %d bits (%v), want %d (steps=%d unpaired=%d floor=%g)",
			len(res.Bits), res.Bits, len(bits), len(res.Steps), res.UnpairedSteps, res.NoiseFloor)
	}
	for i := range bits {
		if res.Bits[i] != bits[i] {
			t.Fatalf("bit %d decoded as %v, want %v", i, res.Bits[i], bits[i])
		}
	}
	if res.BitSNRsDB[0] <= 3 {
		t.Fatalf("gesture SNR %v dB too low for a 4 m subject", res.BitSNRsDB[0])
	}
}

// TestSpatialVarianceOrdering: more walkers => higher spatial variance
// (the Fig. 7-3 mechanism). Averaged over a few seeds; the full 80-trial
// CDF lives in the evaluation harness.
func TestSpatialVarianceOrdering(t *testing.T) {
	variances := make([]float64, 3)
	const seeds = 5
	for n := 0; n <= 2; n++ {
		for s := 0; s < seeds; s++ {
			dev, _ := newSimDevice(t, int64(100+10*n+s), func(sc *sim.Scene) {
				for i := 0; i < n; i++ {
					if _, err := sc.AddWalker(8); err != nil {
						t.Fatal(err)
					}
				}
			})
			img, _, err := dev.Track(0, 6)
			if err != nil {
				t.Fatal(err)
			}
			variances[n] += dev.SpatialVariance(img) / seeds
		}
	}
	if !(variances[0] < variances[1]) {
		t.Fatalf("variance(0 humans)=%g !< variance(1)=%g", variances[0], variances[1])
	}
	// The 1-vs-2 separation is modest (the paper's separations shrink
	// with the count, §7.4); require the mean ordering with a small
	// tolerance for seed noise.
	if variances[2] < variances[1]*0.95 {
		t.Fatalf("variance(1)=%g not <= variance(2)=%g", variances[1], variances[2])
	}
}

func TestCountHumansWithClassifier(t *testing.T) {
	c := &detect.Classifier{Base: 0, Thresholds: []float64{10, 20}}
	dev, _ := newSimDevice(t, 3, nil)
	img := &isar.Image{
		ThetaDeg:    []float64{-10, 0, 10},
		Power:       [][]float64{{1, 100, 1}},
		Times:       []float64{0},
		MotionPower: []float64{1},
		SignalDim:   []int{1},
	}
	got := c.Classify(dev.SpatialVariance(img))
	if got < 0 || got > 2 {
		t.Fatalf("count = %d", got)
	}
}

// TestNonFiniteDurationRejected: a NaN or infinite duration passes the
// sign check and converts to no meaningful sample count, so every
// capture entry point refuses it by value, before nulling or capturing,
// and not as a short capture.
func TestNonFiniteDurationRejected(t *testing.T) {
	dev, _ := newSimDevice(t, 4, nil)
	ctx := context.Background()
	for _, dur := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err1 := dev.CaptureTraceCtx(ctx, 0, dur)
		_, _, err2 := dev.TrackCtx(ctx, 0, dur)
		_, err3 := dev.Observe(ctx, TrackRequest{Duration: dur})
		_, err4 := dev.ObserveStream(ctx, TrackRequest{Duration: dur})
		for i, err := range []error{err1, err2, err3, err4} {
			if err == nil || errors.Is(err, ErrShortCapture) || !strings.Contains(err.Error(), fmt.Sprint(dur)) {
				t.Errorf("duration %v, entry point %d: err = %v, want an error naming the duration", dur, i+1, err)
			}
		}
	}
	if dev.NullingResult() != nil {
		t.Fatal("a rejected duration nulled the device")
	}
}

// errFrontEnd exercises error propagation.
type errFrontEnd struct{ FrontEnd }

func (e errFrontEnd) MeasureSingle(int) ([]complex128, error) {
	return nil, errors.New("radio unplugged")
}

func TestNullErrorPropagates(t *testing.T) {
	_, fe := newSimDevice(t, 5, nil)
	dev, err := New(errFrontEnd{fe}, DefaultConfig(fe))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Null(); err == nil {
		t.Fatal("front-end error swallowed")
	}
	if _, err := dev.CaptureTrace(0, 1); err == nil {
		t.Fatal("auto-null error swallowed")
	}
}

// TestFrameAlignedDurations pins the duration-to-samples conversion on
// frame boundaries. For k = 0..199 a capture of (100 + 25k)·3.2 ms,
// written to 4 decimals as a caller would write it, must record
// 100 + 25k samples and image k + 1 frames, batch and streamed alike.
// Truncating duration/SampleT lost the last frame on 42 of these (0.72 s
// divides to 224.99999999999997 samples). A fractional duration still
// floors: 8.7 s is 2,718.75 samples and captures 2,718.
func TestFrameAlignedDurations(t *testing.T) {
	fe, err := sim.NewDevice(sim.NewScene(sim.SceneConfig{Seed: 5}), sim.DefaultCalibration(), sim.DeviceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The window and hop set the frame count and keep the paper's
	// values; a coarse angle grid and a small subarray keep 400 captures
	// fast.
	cfg := DefaultConfig(fe)
	cfg.ISAR.Subarray = 8
	cfg.ISAR.ThetaStepDeg = 15
	dev, err := New(fe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dev.samples(8.7, true); err != nil || n != 2718 {
		t.Fatalf("8.7 s: %d samples (err %v), want 2718", n, err)
	}
	ctx := context.Background()
	for k := 0; k < 200; k++ {
		want := cfg.ISAR.Window + k*cfg.ISAR.Hop
		dur, err := strconv.ParseFloat(strconv.FormatFloat(float64(want)*fe.SampleT(), 'f', 4, 64), 64)
		if err != nil {
			t.Fatal(err)
		}
		img, tr, err := dev.TrackCtx(ctx, 0, dur)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dev.ObserveStream(ctx, TrackRequest{Duration: dur})
		if err != nil {
			t.Fatal(err)
		}
		simg, str, err := st.Result()
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			form  string
			img   *isar.Image
			trace *Trace
		}{{"batch", img, tr}, {"streamed", simg, str}} {
			if n, frames := got.trace.Samples(), len(got.img.Times); n != want || frames != k+1 {
				t.Errorf("%s %v s: %d samples and %d frames, want %d and %d", got.form, dur, n, frames, want, k+1)
			}
		}
	}
}
