// Package core integrates Wi-Vi's processing pipeline — the paper's
// primary contribution — into a single device abstraction:
//
//	null the static channel (internal/nulling, §4)
//	  -> boost power and capture the residual channel (§4.1.2)
//	  -> combine subcarriers (§7.1)
//	  -> emulated-array processing with smoothed MUSIC (internal/isar, §5)
//	  -> track / count humans (internal/detect, §5.2)
//	  -> decode gesture messages (internal/gesture, §6)
//
// The hardware (or, here, the physical simulation in internal/sim) sits
// behind the FrontEnd interface, so the identical pipeline can run over
// synthetic channels in tests and over recorded traces.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"wivi/internal/detect"
	"wivi/internal/gesture"
	"wivi/internal/isar"
	"wivi/internal/nulling"
	"wivi/internal/ofdm"
)

// FrontEnd abstracts the radio hardware the pipeline drives. It extends
// the nulling sounder with chunked tracking capture and radio metadata.
// The methods use only basic types, so implementations satisfy it
// structurally without importing this package.
type FrontEnd interface {
	nulling.Sounder

	// StreamCapture records total tracking samples starting at startT
	// (seconds) with the given precoding and transmit boost, delivering
	// consecutive chunks of up to chunk samples (indexed
	// [subcarrier][sample]) to emit as they are recorded. An emit error
	// aborts the capture and is returned — the cancellation path. The
	// samples must not depend on the chunk size: a capture read in one
	// chunk and the same capture read hop by hop concatenate to the same
	// bits.
	//
	// A chunk is valid only until emit returns: implementations may reuse
	// the chunk's rows for the next chunk (internal/sim does), so emit
	// must copy whatever it needs to retain and leave the rows in place.
	StreamCapture(p []complex128, boostDB float64, startT float64, total, chunk int, emit func([][]complex128) error) error

	// Wavelength returns the center carrier wavelength in meters.
	Wavelength() float64
	// SampleT returns the tracking sample period in seconds.
	SampleT() float64
	// NumSubcarriers returns the per-measurement subcarrier count.
	NumSubcarriers() int
	// NoiseFloor returns the expected noise power of one combined
	// tracking sample (measurable with the transmitter off).
	NoiseFloor() float64
}

// Mode selects the device's operating mode (§3.2).
type Mode int

const (
	// ModeTracking images and tracks moving objects behind the wall.
	ModeTracking Mode = iota
	// ModeGesture decodes gesture-encoded messages.
	ModeGesture
)

// String renders the mode.
func (m Mode) String() string {
	if m == ModeGesture {
		return "gesture"
	}
	return "tracking"
}

// TrackRequest describes one capture as pure request data. The mode
// rides with the request instead of mutating device state, so
// interleaved tracking and gesture requests on one device never race
// and each sees exactly its own mode; the engine (internal/pipeline)
// threads the request through unchanged.
type TrackRequest struct {
	// Mode selects the per-request processing (§3.2): ModeTracking stops
	// at the angle-time image, ModeGesture also runs the §6.2 decode
	// chain. The capture and imaging stages are mode-independent — the
	// paper runs one pipeline for both — so mode only selects the decode.
	Mode Mode
	// Duration is the capture length in seconds, from the scene's t = 0.
	Duration float64
}

// Observation is the outcome of one request: the shared capture+image
// stages' output plus the mode-selected decode.
type Observation struct {
	// Mode echoes the request mode.
	Mode Mode
	// Image is the angle-time image.
	Image *isar.Image
	// Trace is the captured channel trace.
	Trace *Trace
	// Gestures is the §6.2 decode result; non-nil iff Mode is ModeGesture.
	Gestures *gesture.Result
}

// Config parameterizes the pipeline.
type Config struct {
	// Nulling controls Algorithm 1.
	Nulling nulling.Config
	// ISAR controls the emulated-array processing. Lambda and SampleT
	// are overwritten from the front end.
	ISAR isar.Config
	// Gesture controls the decoder; FrameT is overwritten from the ISAR
	// hop.
	Gesture gesture.DecoderConfig
	// FrameWorkers bounds the per-capture ISAR frame fan-out (frames are
	// independent stages assembled by index, so the image is identical
	// for every worker count). Values <= 1 process frames sequentially;
	// DefaultConfig uses GOMAXPROCS.
	FrameWorkers int
	// Pace delivers captures at the radio's real cadence on this clock:
	// the capture loop releases each chunk only once its last sample
	// would have left a real radio (epoch + delivered·SampleT), in a wait
	// the request's context cancels, and streamed frame lags are timed on
	// it. nil captures as fast as the front end synthesizes and times
	// lags on the real clock. Pacing moves delivery times only, never the
	// samples or images.
	Pace Clock
}

// DefaultConfig returns the paper-matched pipeline configuration for a
// front end.
func DefaultConfig(fe FrontEnd) Config {
	ic := isar.DefaultConfig()
	ic.Lambda = fe.Wavelength()
	ic.SampleT = fe.SampleT()
	return Config{
		Nulling:      nulling.DefaultConfig(),
		ISAR:         ic,
		Gesture:      gesture.DefaultDecoderConfig(float64(ic.Hop) * ic.SampleT),
		FrameWorkers: runtime.GOMAXPROCS(0),
	}
}

// Trace is one recorded capture: the subcarrier-combined stream the ISAR
// core consumes and, from CaptureTrace, the per-subcarrier residual
// channel.
type Trace struct {
	// SampleT is the sample period in seconds.
	SampleT float64
	// Lambda is the center wavelength in meters.
	Lambda float64
	// PerSub is the raw capture, indexed [subcarrier][sample]. Only
	// CaptureTrace records it; tracked and streamed captures keep just
	// the combined stream.
	PerSub [][]complex128
	// Combined is the coherently combined channel stream.
	Combined []complex128
	// Nulling is the nulling result in effect during the capture.
	Nulling *nulling.Result
}

// Samples returns the trace length in samples.
func (t *Trace) Samples() int { return len(t.Combined) }

// Device is the integrated Wi-Vi pipeline over a front end.
//
// Device is safe for concurrent use: the front end is a stateful radio
// (AGC, oscillator phase, noise stream), so measurements — nulling and
// captures — serialize on an internal mutex, while the pure compute
// stages (ISAR imaging, counting, gesture decoding) run lock-free and
// may overlap freely across goroutines. The concurrent engine in
// internal/pipeline therefore parallelizes across devices and across
// ISAR frames. Captures of one radio still serialize, but each
// capture's channel synthesis fans out over sample blocks inside the
// simulated front end (DESIGN §2).
type Device struct {
	fe   FrontEnd
	cfg  Config
	proc *isar.Processor
	// clock times streamed frame lags: Config.Pace, or the real clock
	// when the device is unpaced.
	clock Clock

	// mu serializes front-end measurements and guards the mutable
	// nulling state. Mode is deliberately NOT device state: it arrives
	// with each TrackRequest, so mixed track/gesture traffic needs no
	// mode lock and can never observe another request's mode.
	mu      sync.Mutex
	nullRes *nulling.Result
}

// New builds a pipeline device. The config's ISAR lambda/sample period
// and gesture frame period are synchronized to the front end.
func New(fe FrontEnd, cfg Config) (*Device, error) {
	if fe == nil {
		return nil, errors.New("core: nil front end")
	}
	cfg.ISAR.Lambda = fe.Wavelength()
	cfg.ISAR.SampleT = fe.SampleT()
	cfg.Gesture.FrameT = float64(cfg.ISAR.Hop) * cfg.ISAR.SampleT
	proc, err := isar.NewProcessor(cfg.ISAR)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	clock := cfg.Pace
	if clock == nil {
		clock = RealClock()
	}
	return &Device{fe: fe, cfg: cfg, proc: proc, clock: clock}, nil
}

// Config returns the active configuration.
func (d *Device) Config() Config { return d.cfg }

// Null runs the three-phase nulling procedure (§4) and retains the
// result for subsequent captures.
func (d *Device) Null() (*nulling.Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nullLocked()
}

func (d *Device) nullLocked() (*nulling.Result, error) {
	res, err := nulling.Run(d.fe, d.cfg.Nulling)
	if err != nil {
		return nil, err
	}
	d.nullRes = res
	return res, nil
}

// NullingResult returns the most recent nulling result (nil before
// Null). The result is read-shared and must not be modified.
func (d *Device) NullingResult() *nulling.Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nullRes
}

// CaptureTrace nulls (if not yet done) and records duration seconds of
// the residual channel starting at startT.
func (d *Device) CaptureTrace(startT, duration float64) (*Trace, error) {
	return d.CaptureTraceCtx(context.Background(), startT, duration)
}

// ErrShortCapture rejects an imaging request whose capture holds fewer
// samples than one ISAR analysis window (0.32 s at the default
// calibration): such a capture yields no frame. TrackCtx, Observe and
// ObserveStream return it before nulling or capturing.
var ErrShortCapture = errors.New("core: capture shorter than one analysis window")

// samples converts a capture duration to its sample count; imaged
// requests must also span one analysis window. The count floors
// duration/SampleT, but with a millionth of a sample to spare: a duration
// that is a whole number of samples often divides to just below it in
// float64 (0.72/0.0032 = 224.99999999999997), and plain truncation would
// drop that last sample and, on a frame boundary, the last frame. A NaN
// or infinite duration is refused first: it passes the sign check, and
// converting it to an int gives no meaningful count.
func (d *Device) samples(duration float64, imaged bool) (int, error) {
	if math.IsNaN(duration) || math.IsInf(duration, 0) {
		return 0, fmt.Errorf("core: capture duration %v is not finite", duration)
	}
	if duration <= 0 {
		return 0, fmt.Errorf("core: non-positive capture duration %v", duration)
	}
	n := max(int(duration/d.fe.SampleT()+1e-6), 1)
	if imaged && n < d.cfg.ISAR.Window {
		return 0, fmt.Errorf("%w: %d samples < window %d", ErrShortCapture, n, d.cfg.ISAR.Window)
	}
	return n, nil
}

// CaptureTraceCtx is CaptureTrace with cancellation: the capture loop
// checks ctx before the measurement, once the capture is read and in a
// paced capture's wait.
func (d *Device) CaptureTraceCtx(ctx context.Context, startT, duration float64) (*Trace, error) {
	n, err := d.samples(duration, false)
	if err != nil {
		return nil, err
	}
	perSub := make([][]complex128, d.fe.NumSubcarriers())
	tr, err := d.capture(ctx, startT, n, n, func(sub [][]complex128, _ []complex128) error {
		for k := range perSub {
			perSub[k] = append(perSub[k], sub[k]...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.PerSub = perSub
	return tr, nil
}

// capture is the one capture loop behind every request. It holds the
// device lock for the whole capture (one radio is one stateful
// instrument: interleaved captures would corrupt both sample streams),
// nulls first if the device has not been nulled yet, and reads n samples
// from startT in chunks of chunk samples. When Config.Pace is set, each
// chunk is released only at the instant its last sample arrives. Each
// chunk is then combined into one capture-length buffer and, if each is
// non-nil, handed to it with its combined view ready. ctx is checked
// before the measurement, at every chunk and in every pacing wait.
func (d *Device) capture(ctx context.Context, startT float64, n, chunk int, each func(sub [][]complex128, ready []complex128) error) (*Trace, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.nullRes == nil {
		if _, err := d.nullLocked(); err != nil {
			return nil, fmt.Errorf("core: auto-null: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	pace, sampleT := d.cfg.Pace, d.fe.SampleT()
	var epoch time.Time
	if pace != nil {
		epoch = pace.Now()
	}
	tr := &Trace{SampleT: sampleT, Lambda: d.fe.Wavelength(), Combined: make([]complex128, 0, n), Nulling: d.nullRes}
	err := d.fe.StreamCapture(d.nullRes.P, d.cfg.Nulling.BoostDB, startT, n, min(chunk, n), func(sub [][]complex128) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pace != nil {
			due := epoch.Add(sampleSpan(len(tr.Combined)+chunkSamples(sub), sampleT))
			if err := pace.Sleep(ctx, due.Sub(pace.Now())); err != nil {
				return err
			}
		}
		// Causal per-sample averaging (see ofdm.AverageSubcarriers for
		// why alignment is skipped) does not depend on the chunk size, so
		// a batch capture read in one chunk and a stream read hop by hop
		// combine to the same bits.
		old := len(tr.Combined)
		var err error
		if tr.Combined, err = ofdm.AverageSubcarriersAppend(tr.Combined, sub); err != nil {
			return fmt.Errorf("core: combining subcarriers: %w", err)
		}
		if each == nil {
			return nil
		}
		return each(sub, tr.Combined[old:])
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// sampleSpan converts a sample count into its wall-clock span.
func sampleSpan(n int, sampleT float64) time.Duration {
	return time.Duration(float64(n) * sampleT * float64(time.Second))
}

// chunkSamples returns the per-subcarrier sample count of a chunk (the
// length of its first populated row; guard subcarriers may be empty).
func chunkSamples(sub [][]complex128) int {
	for _, row := range sub {
		if len(row) > 0 {
			return len(row)
		}
	}
	return 0
}

// ImageCtx runs the smoothed-MUSIC ISAR chain over a trace; the frame
// stages fan out over the configured FrameWorkers. Imaging is pure
// compute on the trace, so it takes no device lock and may overlap other
// captures.
func (d *Device) ImageCtx(ctx context.Context, tr *Trace) (*isar.Image, error) {
	return d.proc.ComputeImageCtx(ctx, tr.Combined, d.cfg.FrameWorkers)
}

// Track captures duration seconds and returns the angle-time image plus
// the underlying trace.
func (d *Device) Track(startT, duration float64) (*isar.Image, *Trace, error) {
	return d.TrackCtx(context.Background(), startT, duration)
}

// TrackCtx is Track with cancellation. The capture reads the whole span
// as one chunk, so the front end can fan its synthesis out over sample
// blocks; the ISAR stages then fan out per frame after the device lock
// is released, so other captures of the device can overlap the imaging.
// This is the entry point the concurrent engine (internal/pipeline)
// drives. A duration shorter than one analysis window fails with
// ErrShortCapture before any measurement.
func (d *Device) TrackCtx(ctx context.Context, startT, duration float64) (*isar.Image, *Trace, error) {
	n, err := d.samples(duration, true)
	if err != nil {
		return nil, nil, err
	}
	tr, err := d.capture(ctx, startT, n, n, nil)
	if err != nil {
		return nil, nil, err
	}
	img, err := d.ImageCtx(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	return img, tr, nil
}

// Observe executes one request end to end: null (if needed), capture,
// image, and — in gesture mode — decode. The capture serializes on the
// device mutex like every measurement; the imaging and decode stages are
// pure compute and overlap freely. Mode is request data, never device
// state, so concurrent Observe calls with different modes on one device
// are safe and each sees exactly its own mode.
func (d *Device) Observe(ctx context.Context, req TrackRequest) (*Observation, error) {
	img, tr, err := d.TrackCtx(ctx, 0, req.Duration)
	if err != nil {
		return nil, err
	}
	return d.finishObservation(req.Mode, img, tr)
}

// finishObservation applies the mode-selected decode stage to a
// completed capture — the one place batch and streamed requests share.
func (d *Device) finishObservation(mode Mode, img *isar.Image, tr *Trace) (*Observation, error) {
	obs := &Observation{Mode: mode, Image: img, Trace: tr}
	if mode == ModeGesture {
		res, err := d.DecodeGestures(img)
		if err != nil {
			return nil, fmt.Errorf("core: gesture decode: %w", err)
		}
		obs.Gestures = res
	}
	return obs, nil
}

// SpatialVariance returns the trial-level counting statistic: the
// line-spread spatial variance anchored to the receiver noise floor
// (detect.MeanLineVariance; see its doc for the relation to Eq. 5.4/5.5).
func (d *Device) SpatialVariance(img *isar.Image) float64 {
	return detect.MeanLineVariance(img, d.fe.NoiseFloor(), d.cfg.Gesture.GuardAngleDeg)
}

// DecodeGestures runs the §6.2 decoding chain over an image.
func (d *Device) DecodeGestures(img *isar.Image) (*gesture.Result, error) {
	return gesture.DecodeImage(img, d.cfg.Gesture)
}

// Processor exposes the underlying ISAR processor (for evaluation code
// that needs the angle grid).
func (d *Device) Processor() *isar.Processor { return d.proc }
