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

	"wivi/internal/detect"
	"wivi/internal/gesture"
	"wivi/internal/isar"
	"wivi/internal/nulling"
	"wivi/internal/ofdm"
)

// FrontEnd abstracts the radio hardware the pipeline drives. It extends
// the nulling sounder with batch and chunked tracking capture and radio
// metadata. The methods use only basic types, so implementations satisfy
// it structurally without importing this package.
type FrontEnd interface {
	nulling.Sounder

	// Capture records n tracking samples starting at startT (seconds)
	// with the given precoding and transmit boost; the result is indexed
	// [subcarrier][sample].
	Capture(p []complex128, boostDB float64, startT float64, n int) ([][]complex128, error)

	// StreamCapture runs a chunked capture of total samples starting at
	// startT with the given precoding and boost, delivering consecutive
	// chunks of up to chunk samples (indexed [subcarrier][sample]) to
	// emit as they are recorded. An emit error aborts the capture and is
	// returned — the cancellation path. The concatenated chunks must be
	// bit-identical to Capture(p, boostDB, startT, total).
	//
	// A chunk is valid only until emit returns: implementations may reuse
	// the chunk buffers for the next chunk (internal/sim does), so emit
	// must copy whatever it needs to retain.
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

// ctxCapturer is an optional FrontEnd extension: a batch capture whose
// completion wait honors a context. PacedFrontEnd implements it — its
// captures take real wall-clock time, so the wait must be abortable.
type ctxCapturer interface {
	CaptureCtx(ctx context.Context, p []complex128, boostDB float64, startT float64, n int) ([][]complex128, error)
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
	// StartT and Duration delimit the capture in seconds.
	StartT, Duration float64
	// ChunkSamples is the capture chunk granularity for streamed
	// requests (0 = Config.StreamChunk); batch Observe ignores it.
	ChunkSamples int
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
	// StreamChunk is the default capture chunk, in samples, for streamed
	// requests (ObserveStream with TrackRequest.ChunkSamples == 0).
	// Defaults to the ISAR hop: one potential new frame per chunk.
	StreamChunk int
	// Clock supplies wall-clock time for the per-frame lag accounting in
	// streamed captures (frame emit instant vs. the arrival of its
	// window's last sample). nil defaults to the front end's pacing clock
	// when it is a PacedFrontEnd, else the real wall clock. The clock
	// never affects the computed samples or images, only latency
	// measurement and pacing.
	Clock Clock
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
		StreamChunk:  ic.Hop,
	}
}

// Trace is one recorded capture: the per-subcarrier residual channel and
// the subcarrier-combined stream the ISAR core consumes.
type Trace struct {
	// SampleT is the sample period in seconds.
	SampleT float64
	// Lambda is the center wavelength in meters.
	Lambda float64
	// PerSub is the raw capture, indexed [subcarrier][sample].
	PerSub [][]complex128
	// Combined is the coherently combined channel stream.
	Combined []complex128
	// Nulling is the nulling result in effect during the capture.
	Nulling *nulling.Result
}

// Samples returns the trace length in samples.
func (t *Trace) Samples() int { return len(t.Combined) }

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Combined)) * t.SampleT }

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
	if cfg.StreamChunk <= 0 {
		cfg.StreamChunk = cfg.ISAR.Hop
	}
	if cfg.Clock == nil {
		if paced, ok := fe.(*PacedFrontEnd); ok {
			cfg.Clock = paced.Clock()
		} else {
			cfg.Clock = RealClock()
		}
	}
	proc, err := isar.NewProcessor(cfg.ISAR)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Device{fe: fe, cfg: cfg, proc: proc}, nil
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

// CaptureTraceCtx is CaptureTrace with cancellation. The front end is
// one stateful radio, so concurrent captures serialize on the device
// mutex; the context is checked before the measurement starts (a capture
// in progress runs to completion, mirroring real hardware DMA).
func (d *Device) CaptureTraceCtx(ctx context.Context, startT, duration float64) (*Trace, error) {
	n, err := d.samples(duration, false)
	if err != nil {
		return nil, err
	}
	return d.captureTrace(ctx, startT, n)
}

// captureTrace records n samples starting at startT, nulling first if
// the device has not been nulled yet.
func (d *Device) captureTrace(ctx context.Context, startT float64, n int) (*Trace, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.nullRes == nil {
		if _, err := d.nullLocked(); err != nil {
			return nil, fmt.Errorf("core: auto-null: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var perSub [][]complex128
	var err error
	if cc, ok := d.fe.(ctxCapturer); ok {
		// A paced front end's capture spans real wall clock; thread the
		// request context so cancellation interrupts the pacing wait
		// instead of pinning the device mutex for the remaining span.
		perSub, err = cc.CaptureCtx(ctx, d.nullRes.P, d.cfg.Nulling.BoostDB, startT, n)
	} else {
		perSub, err = d.fe.Capture(d.nullRes.P, d.cfg.Nulling.BoostDB, startT, n)
	}
	if err != nil {
		return nil, fmt.Errorf("core: capture: %w", err)
	}
	// Causal per-sample averaging, not the acausal whole-capture
	// alignment: batch and streamed captures must run the identical
	// combining math for the stream/batch byte-identity guarantee to
	// hold (see ofdm.AverageSubcarriers for why alignment is skipped).
	// The output is sized once for the capture, as the stream path does.
	combined, err := ofdm.AverageSubcarriersAppend(make([]complex128, 0, n), perSub)
	if err != nil {
		return nil, fmt.Errorf("core: combining subcarriers: %w", err)
	}
	return &Trace{
		SampleT:  d.fe.SampleT(),
		Lambda:   d.fe.Wavelength(),
		PerSub:   perSub,
		Combined: combined,
		Nulling:  d.nullRes,
	}, nil
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

// TrackCtx is Track with cancellation: the capture serializes on the
// device (stateful radio), then the ISAR stages fan out per frame. This
// is the entry point the concurrent engine (internal/pipeline) drives.
// A duration shorter than one analysis window fails with
// ErrShortCapture before any measurement.
func (d *Device) TrackCtx(ctx context.Context, startT, duration float64) (*isar.Image, *Trace, error) {
	n, err := d.samples(duration, true)
	if err != nil {
		return nil, nil, err
	}
	tr, err := d.captureTrace(ctx, startT, n)
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
	img, tr, err := d.TrackCtx(ctx, req.StartT, req.Duration)
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
