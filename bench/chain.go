package main

// The chain trace: the workload's request mix replayed one request at a
// time through a core.Device built the way wivi.NewDevice builds it,
// over the workload's seeded sim.Device wrapped in a timing front end,
// with FrameWorkers = 1. Each request runs the batch path call by call
// as core.Device.Observe makes them (their sum is the request's wall
// time) and the stream path (ObserveStream, then Stream.Result); the
// layers inside those calls are timed by the front end or by calling
// their public functions from here on the same data. Before any
// figure is used, every streamed spectrum must be bitwise-equal to a
// fresh same-seed untraced wivi device's StreamFrame.Power for the same
// sequence of captures.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"wivi"
	"wivi/internal/cmath"
	"wivi/internal/core"
	"wivi/internal/gesture"
	"wivi/internal/isar"
	"wivi/internal/motion"
	"wivi/internal/ofdm"
	"wivi/internal/rf"
	"wivi/internal/sim"
)

// timedFrontEnd is the chain's core.FrontEnd decorator over a
// sim.Device. It times sample synthesis — Capture, and StreamCapture
// minus the time spent downstream inside emit — and counts the nulling
// soundings.
type timedFrontEnd struct {
	*sim.Device
	clk       core.Clock
	captureNs atomic.Int64
	samples   atomic.Int64
	soundings atomic.Int64
}

func (f *timedFrontEnd) MeasureSingle(ant int) ([]complex128, error) {
	f.soundings.Add(1)
	return f.Device.MeasureSingle(ant)
}

func (f *timedFrontEnd) MeasureCombined(p []complex128, boostDB float64) ([]complex128, error) {
	f.soundings.Add(1)
	return f.Device.MeasureCombined(p, boostDB)
}

func (f *timedFrontEnd) Capture(p []complex128, boostDB, startT float64, n int) ([][]complex128, error) {
	t0 := f.clk.Now()
	out, err := f.Device.Capture(p, boostDB, startT, n)
	f.captureNs.Add(int64(f.clk.Now().Sub(t0)))
	f.samples.Add(int64(n))
	return out, err
}

func (f *timedFrontEnd) StreamCapture(p []complex128, boostDB, startT float64, total, chunk int, emit func([][]complex128) error) error {
	var downstream time.Duration
	t0 := f.clk.Now()
	err := f.Device.StreamCapture(p, boostDB, startT, total, chunk, func(c [][]complex128) error {
		e0 := f.clk.Now()
		err := emit(c)
		downstream += f.clk.Now().Sub(e0)
		return err
	})
	f.captureNs.Add(int64(f.clk.Now().Sub(t0) - downstream))
	f.samples.Add(int64(total))
	return err
}

// simDevice builds the sim.Device a wivi device over the same spec and
// seed wraps (wivi.NewScene, AddWalker, AddGestureSender and NewDevice
// with default options).
func simDevice(spec deviceSpec, seed int64, motionS float64) (*sim.Device, error) {
	sc := sim.NewScene(sim.SceneConfig{Seed: seed, Wall: rf.HollowWall})
	for k := 0; k < spec.walkers; k++ {
		if _, err := sc.AddWalker(motionS); err != nil {
			return nil, err
		}
	}
	if spec.gesture {
		msg := gestureMessageSpec()
		bits := make([]motion.Bit, len(msg.Bits))
		for i, b := range msg.Bits {
			bits[i] = motion.Bit(b)
		}
		const leadInS = 1.5 // wivi's default GestureMessage.LeadInSeconds
		if _, err := sc.AddGestureSubject(msg.Distance, bits, motion.DefaultGestureParams(), msg.SlantDeg, leadInS); err != nil {
			return nil, err
		}
	}
	return sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
}

// chainDevice is one traced device and its untraced reference.
type chainDevice struct {
	fe  *timedFrontEnd
	dev *core.Device
	ref *wivi.Device
}

// chainTotals accumulates the chain's layer timings.
type chainTotals struct {
	nullMs, soundings          []float64
	captureNs, samples         int64
	combine                    time.Duration
	combineSamples             int64
	image1, imageFan           time.Duration
	frames                     int
	stream                     time.Duration
	streamFrames               int
	ttffMs, assembleMs         []float64
	cov, eig, bartlett         time.Duration
	kernelFrames, signalDimSum int
	subarray                   int
	decodeMs                   []float64
	requestWall, requestAttrib time.Duration
}

// runChain replays the workload's chain requests and returns the chain
// per-layer metrics. It fails if a traced spectrum differs from the
// untraced reference.
func runChain(ctx context.Context, w *workload, seed int64, clk core.Clock) (map[string]float64, error) {
	ref := wivi.NewEngine(wivi.EngineOptions{Workers: nproc(), MaxStreams: nproc()})
	defer ref.Close()
	var tot chainTotals
	devs := map[int]*chainDevice{}
	for n, req := range w.chain {
		cd := devs[req.device]
		if cd == nil {
			var err error
			if cd, err = newChainDevice(w.devices[req.device], sceneSeed(w.devices, seed, req.device), w.motionS, clk, &tot); err != nil {
				return nil, err
			}
			devs[req.device] = cd
		}
		if err := cd.replay(ctx, ref, req, clk, &tot); err != nil {
			return nil, fmt.Errorf("chain request %d (%s on %s): %w", n, req.kind, w.devices[req.device].name, err)
		}
	}
	if len(tot.decodeMs) == 0 {
		if err := decodeProbe(ctx, clk, &tot); err != nil {
			return nil, err
		}
	}
	frames := float64(tot.frames)
	kframes := float64(tot.kernelFrames)
	signalDim := float64(tot.signalDimSum) / frames
	return map[string]float64{
		"sim.capture_us_per_sample":      us(time.Duration(tot.captureNs)) / float64(tot.samples),
		"nulling.null_ms":                mean(tot.nullMs),
		"nulling.soundings":              mean(tot.soundings),
		"ofdm.combine_us_per_sample":     us(tot.combine) / float64(tot.combineSamples),
		"isar.image_ms_per_frame":        ms(tot.image1) / frames,
		"isar.image_fanout_speedup":      float64(tot.image1) / float64(tot.imageFan),
		"isar.stream_ms_per_frame":       ms(tot.stream) / float64(tot.streamFrames),
		"core.ttff_ms":                   mean(tot.ttffMs),
		"isar.assemble_ms_per_request":   mean(tot.assembleMs),
		"isar.cov_us_per_frame":          us(tot.cov) / kframes,
		"cmath.eig_us_per_frame":         us(tot.eig) / kframes,
		"isar.bartlett_us_per_frame":     us(tot.bartlett) / kframes,
		"isar.signal_dim_mean":           signalDim,
		"cmath.eigvec_used_frac":         signalDim / float64(tot.subarray),
		"gesture.decode_ms":              mean(tot.decodeMs),
		"ledger.chain_unattributed_frac": 1 - float64(tot.requestAttrib)/float64(tot.requestWall),
	}, nil
}

// newChainDevice builds the traced device and its reference, and nulls
// both (timing the traced nulling).
func newChainDevice(spec deviceSpec, seed int64, motionS float64, clk core.Clock, tot *chainTotals) (*chainDevice, error) {
	sd, err := simDevice(spec, seed, motionS)
	if err != nil {
		return nil, err
	}
	fe := &timedFrontEnd{Device: sd, clk: clk}
	cfg := core.DefaultConfig(fe)
	cfg.FrameWorkers = 1
	dev, err := core.New(fe, cfg)
	if err != nil {
		return nil, err
	}
	t0 := clk.Now()
	if _, err := dev.Null(); err != nil {
		return nil, err
	}
	tot.nullMs = append(tot.nullMs, ms(clk.Now().Sub(t0)))
	tot.soundings = append(tot.soundings, float64(fe.soundings.Load()))
	// The reference is unpaced even for a paced workload: pacing changes
	// when samples arrive, never their values.
	ref, err := buildDevice(spec, seed, motionS, false)
	if err != nil {
		return nil, err
	}
	return &chainDevice{fe: fe, dev: dev, ref: ref}, nil
}

// replay runs one request through the traced device's batch and stream
// paths, times each layer on the captured data, and checks the streamed
// spectra against the reference device running the same two captures.
func (cd *chainDevice) replay(ctx context.Context, ref *wivi.Engine, req request, clk core.Clock, tot *chainTotals) error {
	mode, wmode := core.ModeTracking, wivi.Track
	if req.kind == kindGesture {
		mode, wmode = core.ModeGesture, wivi.Gesture
	}
	timed := func(f func() error) (time.Duration, error) {
		t0 := clk.Now()
		err := f()
		return clk.Now().Sub(t0), err
	}

	// The batch path, call by call as core.Device.Observe makes it: the
	// capture (which combines the subcarriers), the image, and in gesture
	// mode the decode. The request's wall time is the sum of the calls.
	c0, s0 := cd.fe.captureNs.Load(), cd.fe.samples.Load()
	var tr *core.Trace
	wall, err := timed(func() (err error) {
		tr, err = cd.dev.CaptureTraceCtx(ctx, 0, req.dur)
		return err
	})
	if err != nil {
		return err
	}
	capture := time.Duration(cd.fe.captureNs.Load() - c0)
	var img *isar.Image
	image1, err := timed(func() (err error) {
		img, err = cd.dev.ImageCtx(ctx, tr)
		return err
	})
	if err != nil {
		return err
	}
	wall += image1
	var attrib time.Duration
	if mode == core.ModeGesture {
		var res *gesture.Result
		decode, err := timed(func() (err error) {
			res, err = cd.dev.DecodeGestures(img)
			return err
		})
		if err != nil {
			return err
		}
		if got := bitString(res.Bits); got != gestureMessage {
			return fmt.Errorf("traced gesture decode %q, want %q", got, gestureMessage)
		}
		tot.decodeMs = append(tot.decodeMs, ms(decode))
		wall += decode
		attrib += decode
	}
	// Replays on the same capture: the combine inside the capture call,
	// and the image at one worker per CPU.
	combine, err := timed(func() error { _, err := ofdm.AverageSubcarriers(tr.PerSub); return err })
	if err != nil {
		return err
	}
	imageFan, err := timed(func() error {
		_, err := cd.dev.Processor().ComputeImageCtx(ctx, tr.Combined, runtime.GOMAXPROCS(0))
		return err
	})
	if err != nil {
		return err
	}
	attrib += capture + combine + image1
	if err := kernelReplay(cd.dev, tr.Combined, clk, tot); err != nil {
		return err
	}
	tot.captureNs += int64(capture)
	tot.samples += cd.fe.samples.Load() - s0
	tot.combine += combine
	tot.combineSamples += int64(len(tr.Combined))
	tot.image1 += image1
	tot.imageFan += imageFan
	tot.frames += img.NumFrames()
	for _, d := range img.SignalDim {
		tot.signalDimSum += d
	}
	tot.requestWall += wall
	tot.requestAttrib += attrib

	// The stream path.
	c0, s0 = cd.fe.captureNs.Load(), cd.fe.samples.Load()
	t0 := clk.Now()
	st, err := cd.dev.ObserveStream(ctx, core.TrackRequest{Mode: mode, Duration: req.dur})
	if err != nil {
		return err
	}
	var spectra [][]float64
	var last time.Time
	for {
		fr, ok := st.Next()
		if !ok {
			break
		}
		if len(spectra) == 0 {
			tot.ttffMs = append(tot.ttffMs, ms(clk.Now().Sub(t0)))
		}
		spectra = append(spectra, fr.Power)
		if len(spectra) == st.TotalFrames() {
			last = clk.Now()
		}
	}
	if _, _, err := st.Result(); err != nil {
		return err
	}
	done := clk.Now()
	if len(spectra) != st.TotalFrames() {
		return fmt.Errorf("stream emitted %d of %d frames", len(spectra), st.TotalFrames())
	}
	tot.assembleMs = append(tot.assembleMs, ms(done.Sub(last)))
	tot.stream += done.Sub(t0)
	tot.streamFrames += len(spectra)
	tot.captureNs += cd.fe.captureNs.Load() - c0
	tot.samples += cd.fe.samples.Load() - s0

	// The reference: the same batch capture, then the same stream.
	h, err := ref.Submit(ctx, wivi.Request{Device: cd.ref, Duration: req.dur, Mode: wmode})
	if err != nil {
		return err
	}
	if _, err := h.Wait(ctx); err != nil {
		return err
	}
	sh, err := ref.Submit(ctx, wivi.Request{Device: cd.ref, Duration: req.dur, Mode: wmode, Stream: true})
	if err != nil {
		return err
	}
	ts, err := sh.Stream(ctx)
	if err != nil {
		return err
	}
	i := 0
	for fr := range ts.Frames() {
		if i >= len(spectra) || !bitwiseEqual(fr.Power, spectra[i]) {
			return fmt.Errorf("traced frame %d is not bitwise-equal to the untraced device's", i)
		}
		i++
	}
	if err := ts.Err(); err != nil {
		return err
	}
	if i != len(spectra) {
		return fmt.Errorf("untraced device streamed %d frames, traced %d", i, len(spectra))
	}
	return nil
}

// kernelReplay times the per-frame kernels on every analysis window of
// a capture: the smoothed covariance, a from-scratch Hermitian
// eigendecomposition and the Bartlett spectrum.
func kernelReplay(dev *core.Device, combined []complex128, clk core.Clock, tot *chainTotals) error {
	proc := dev.Processor()
	cfg := proc.Config()
	tot.subarray = cfg.Subarray
	for _, spec := range proc.FrameSpecs(len(combined)) {
		win := combined[spec.Start : spec.Start+cfg.Window]
		t0 := clk.Now()
		r, err := proc.SmoothedCorrelation(win)
		if err != nil {
			return err
		}
		t1 := clk.Now()
		if _, err := cmath.HermitianEig(r); err != nil {
			return err
		}
		t2 := clk.Now()
		_ = proc.BartlettSpectrum(r)
		t3 := clk.Now()
		tot.cov += t1.Sub(t0)
		tot.eig += t2.Sub(t1)
		tot.bartlett += t3.Sub(t2)
		tot.kernelFrames++
	}
	return nil
}

// decodeProbe times the gesture decoder for workloads that send no
// gesture requests: one capture of the "01" gesture scene is imaged,
// and DecodeGestures is timed on the image.
func decodeProbe(ctx context.Context, clk core.Clock, tot *chainTotals) error {
	spec := deviceSpec{name: "gesture-probe", gesture: true}
	sd, err := simDevice(spec, gestureSceneSeed, 0)
	if err != nil {
		return err
	}
	dev, err := core.New(sd, core.DefaultConfig(sd))
	if err != nil {
		return err
	}
	dur, err := gestureDuration()
	if err != nil {
		return err
	}
	obs, err := dev.Observe(ctx, core.TrackRequest{Mode: core.ModeGesture, Duration: dur})
	if err != nil {
		return err
	}
	t0 := clk.Now()
	res, err := dev.DecodeGestures(obs.Image)
	if err != nil {
		return err
	}
	tot.decodeMs = append(tot.decodeMs, ms(clk.Now().Sub(t0)))
	if got := bitString(res.Bits); got != gestureMessage {
		return fmt.Errorf("gesture probe decoded %q, want %q", got, gestureMessage)
	}
	return nil
}

func bitString(bits []motion.Bit) string {
	b := make([]byte, len(bits))
	for i, bit := range bits {
		b[i] = '0' + byte(bit)
	}
	return string(b)
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
