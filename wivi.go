// Package wivi is a from-scratch Go reproduction of "See Through Walls
// with Wi-Fi!" (Fadel Adib and Dina Katabi, ACM SIGCOMM 2013): a
// 3-antenna 2.4 GHz device that detects and tracks humans through walls
// using MIMO interference nulling (to eliminate the wall's "flash"
// reflection) and inverse synthetic aperture radar processing (treating
// the human's own motion as an antenna array).
//
// The package is the public API over the full system:
//
//	scene := wivi.NewScene(wivi.SceneOptions{Seed: 1})
//	scene.AddWalker(30)                     // a person moving at will
//	dev, _ := wivi.NewDevice(scene, wivi.DeviceOptions{})
//	res, _ := dev.Track(10)                 // null, capture, image
//	fmt.Println(res.Heatmap(64, 20))        // the Fig. 5-2 style image
//
// Tracking also streams: TrackStream emits the image's frames while the
// capture is still running (the first after ~0.32 s of samples), and its
// Result is byte-identical to Track's.
//
//	ts, _ := dev.TrackStream(ctx, 10)
//	for fr := range ts.Frames() {           // columns of the image, live
//	    _ = fr
//	}
//	res, _ = ts.Result()
//
// Underneath every entry point sits the Engine service API (engine.go):
// an explicitly owned worker pool accepting mixed workloads, with mode
// as per-request data. Servers create their own pools:
//
//	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 8})
//	defer eng.Close()
//	h, _ := eng.Submit(ctx, wivi.Request{Device: dev, Duration: 10, Mode: wivi.Gesture})
//	res, _ := h.Wait(ctx)                   // res.Message is the decoded text
//
// Because the original is a hardware system (USRP software radios), this
// library ships with a physical simulator substrate (channel synthesis,
// SDR front end, human motion); see DESIGN.md for the substitution
// notes. All processing — nulling, ISAR/smoothed MUSIC, counting,
// gesture decoding — is the paper's algorithms, implemented from
// scratch on the Go standard library.
package wivi

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"strings"
	"time"

	"wivi/internal/core"
	"wivi/internal/detect"
	"wivi/internal/isar"
	"wivi/internal/motion"
	"wivi/internal/rf"
	"wivi/internal/sim"
)

// Bit is one gesture-encoded bit (§6.1): '0' is a step forward then a
// step backward; '1' is a step backward then a step forward.
type Bit int

// Bit values.
const (
	Bit0 Bit = 0
	Bit1 Bit = 1
)

// Material identifies an obstruction between the device and the room.
type Material int

// Materials of the paper's evaluation (§7.6) plus Table 4.1 extras.
const (
	FreeSpace Material = iota
	TintedGlass
	SolidWoodDoor
	HollowWall
	Concrete8
	Concrete18
	ReinforcedConcrete
)

// String returns the material's display name.
func (m Material) String() string { return m.rf().Name }

// OneWayAttenuationDB returns the material's one-way RF attenuation at
// 2.4 GHz (Table 4.1).
func (m Material) OneWayAttenuationDB() float64 { return m.rf().OneWayDB }

func (m Material) rf() rf.Material {
	switch m {
	case TintedGlass:
		return rf.TintedGlass
	case SolidWoodDoor:
		return rf.SolidWoodDoor
	case HollowWall:
		return rf.HollowWall
	case Concrete8:
		return rf.Concrete8
	case Concrete18:
		return rf.Concrete18
	case ReinforcedConcrete:
		return rf.ReinforcedConcrete
	default:
		return rf.FreeSpace
	}
}

// SceneOptions configures a through-wall scene.
type SceneOptions struct {
	// Seed makes the scene (furniture, subjects, noise) reproducible.
	Seed int64
	// Wall is the obstruction; default HollowWall (the paper's primary
	// test building, §7.2).
	Wall Material
	// RoomWidth and RoomDepth give the imaged room size in meters;
	// defaults 7 x 4 (the paper's first conference room).
	RoomWidth, RoomDepth float64
}

// Scene is a furnished room behind a wall with zero or more moving
// subjects.
type Scene struct {
	inner *sim.Scene
	seed  int64
}

// NewScene builds a scene.
func NewScene(opts SceneOptions) *Scene {
	sc := sim.NewScene(sim.SceneConfig{
		Seed:      opts.Seed,
		Wall:      opts.Wall.rf(),
		RoomWidth: opts.RoomWidth,
		RoomDepth: opts.RoomDepth,
	})
	return &Scene{inner: sc, seed: opts.Seed}
}

// AddWalker adds a person who moves at will inside the room for the
// given duration in seconds (§7.2).
func (s *Scene) AddWalker(duration float64) error {
	_, err := s.inner.AddWalker(duration)
	return err
}

// GestureMessage configures a gesture-transmitting subject (§6).
type GestureMessage struct {
	// Bits is the message.
	Bits []Bit
	// Distance is how far behind the wall the subject stands, in meters.
	Distance float64
	// SlantDeg tilts the stepping direction off the device line
	// (Fig. 6-2(c): the subject need not know where the device is).
	SlantDeg float64
	// LeadInSeconds is how long the subject stands still before the
	// first gesture. Default 1.5.
	LeadInSeconds float64
}

// AddGestureSender adds a subject transmitting the message and returns
// the total transmission duration in seconds.
func (s *Scene) AddGestureSender(msg GestureMessage) (float64, error) {
	if len(msg.Bits) == 0 {
		return 0, errors.New("wivi: empty gesture message")
	}
	if msg.Distance <= 0 {
		return 0, fmt.Errorf("wivi: gesture distance %v must be positive", msg.Distance)
	}
	if msg.LeadInSeconds == 0 {
		msg.LeadInSeconds = 1.5
	}
	bits := make([]motion.Bit, len(msg.Bits))
	for i, b := range msg.Bits {
		bits[i] = motion.Bit(b)
	}
	params := motion.DefaultGestureParams()
	if _, err := s.inner.AddGestureSubject(msg.Distance, bits, params, msg.SlantDeg, msg.LeadInSeconds); err != nil {
		return 0, err
	}
	return motion.MessageDuration(len(bits), params, msg.LeadInSeconds) + 1, nil
}

// NumSubjects returns the number of moving subjects in the scene.
func (s *Scene) NumSubjects() int { return len(s.inner.Humans) }

// DeviceOptions configures the Wi-Vi device.
type DeviceOptions struct {
	// StandoffMeters is the device's distance from the wall; default 1
	// (§7.3).
	StandoffMeters float64
	// Seed drives the device's noise; defaults to the scene seed.
	Seed int64
	// FrameWorkers bounds the per-capture ISAR frame fan-out; 0 means
	// one per CPU, 1 disables it (fully sequential imaging). The worker
	// count never affects the output image, only the scheduling — see
	// internal/isar's stage decomposition.
	FrameWorkers int
	// StreamChunkSamples is the capture chunk granularity for
	// TrackStream, in samples; 0 uses the ISAR hop (one potential frame
	// per chunk). The chunk size never affects the streamed image, only
	// latency and cancellation granularity.
	StreamChunkSamples int
	// Paced delivers capture samples at the radio's real cadence (one
	// sample per SampleT of wall clock, like the paper's USRP) instead
	// of as fast as the simulator can synthesize them. A paced capture
	// of duration d takes d seconds of wall clock; streamed frame Lag
	// values then measure honest real-time latency. Pacing never changes
	// the samples or images — only their delivery times — so every
	// batch/stream identity guarantee still holds.
	Paced bool
}

// Device is a Wi-Vi device observing one scene.
type Device struct {
	pipeline    *core.Device
	fe          *sim.Device
	streamChunk int
	paced       bool
}

// NewDevice places a device in front of the scene's wall.
func NewDevice(scene *Scene, opts DeviceOptions) (*Device, error) {
	if scene == nil {
		return nil, errors.New("wivi: nil scene")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = scene.seed
	}
	fe, err := sim.NewDevice(scene.inner, sim.DefaultCalibration(), sim.DeviceConfig{
		Standoff: opts.StandoffMeters,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	var front core.FrontEnd = fe
	if opts.Paced {
		front = core.NewPacedFrontEnd(fe, nil)
	}
	cfg := core.DefaultConfig(front)
	if opts.FrameWorkers > 0 {
		cfg.FrameWorkers = opts.FrameWorkers
	}
	pipeline, err := core.New(front, cfg)
	if err != nil {
		return nil, err
	}
	return &Device{pipeline: pipeline, fe: fe, streamChunk: opts.StreamChunkSamples, paced: opts.Paced}, nil
}

// NullingSummary reports the flash-elimination outcome (§4).
type NullingSummary struct {
	// AchievedDB is the reduction in static-path power (Fig. 7-7:
	// median ~40 dB).
	AchievedDB float64
	// Iterations is the number of iterative-nulling refinements.
	Iterations int
}

// Null runs the three-phase nulling procedure and returns its summary.
// Track and DecodeMessage null automatically when needed.
func (d *Device) Null() (NullingSummary, error) {
	res, err := d.pipeline.Null()
	if err != nil {
		return NullingSummary{}, err
	}
	return NullingSummary{AchievedDB: res.AchievedNullingDB(), Iterations: res.Iterations}, nil
}

// TrackingResult is the outcome of a tracking capture.
type TrackingResult struct {
	img *isar.Image
	dev *Device
}

// Track nulls (if needed), captures duration seconds and runs the
// smoothed-MUSIC ISAR chain (§5).
func (d *Device) Track(duration float64) (*TrackingResult, error) {
	return d.TrackCtx(context.Background(), duration)
}

// TrackCtx is Track with cancellation. The request is scheduled on the
// shared default engine: captures of one device serialize (a radio is
// one stateful instrument) while different devices and the per-frame
// ISAR stages run in parallel, so the result is identical to a direct
// sequential Track. Callers that need an isolated pool submit the same
// Request through their own NewEngine.
func (d *Device) TrackCtx(ctx context.Context, duration float64) (*TrackingResult, error) {
	h, err := defaultEngine().Submit(ctx, Request{Device: d, Duration: duration})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res.Tracking, nil
}

// StreamFrame is one column of the angle-time image, emitted while the
// capture is still running.
type StreamFrame struct {
	// Index is the frame's position in the final image.
	Index int
	// Time is the frame window's center time in seconds.
	Time float64
	// Power is the angular pseudospectrum over the stream's Thetas grid
	// (normalized to min = 1). It is shared with the final image — treat
	// it as read-only.
	Power []float64
	// Lag is the frame's wall-clock emission lag: how long after its
	// window's last sample arrived at the front end the frame emerged
	// from the imaging chain. On a paced device this is the honest
	// real-time latency figure (samples arrive at the radio's cadence);
	// unpaced, it measures pure processing delay.
	Lag time.Duration
}

// TrackStream is an in-progress streaming capture: frames arrive in
// index order while later windows are still filling, and Result
// assembles the identical *TrackingResult a batch Track of the same
// duration would have returned. Frames are buffered internally, so a
// slow consumer never stalls the capture.
type TrackStream struct {
	dev   *Device
	inner *core.Stream
}

// TrackStream nulls (if needed) and captures duration seconds
// incrementally: instead of buffering the whole capture before imaging,
// frames of the angle-time image are emitted as soon as their analysis
// windows close — the first after ~0.32 s of samples, not after the
// whole capture. The request is scheduled on the shared default engine;
// it occupies one worker slot for its whole span, and the engine admits
// at most MaxStreams (default workers-1) concurrent streams so batch
// Track submits keep a worker (except on single-worker engines —
// GOMAXPROCS=1 hosts — where one stream is still admitted and batch
// submits queue behind it). Canceling ctx aborts the capture at the
// next chunk boundary.
//
// The streamed frames are byte-identical to the batch path: for the
// same scene and duration, Result().Equal(Track's result) always holds,
// whatever the worker count or chunk size.
func (d *Device) TrackStream(ctx context.Context, duration float64) (*TrackStream, error) {
	h, err := defaultEngine().Submit(ctx, Request{Device: d, Duration: duration, Stream: true})
	if err != nil {
		return nil, err
	}
	return h.Stream(ctx)
}

// Next blocks until the next frame is available and returns it; ok is
// false once the stream has ended (normally or on error — check Err).
func (ts *TrackStream) Next() (fr StreamFrame, ok bool) {
	inner, ok := ts.inner.Next()
	if !ok {
		return StreamFrame{}, false
	}
	return StreamFrame{
		Index: inner.Spec.Index,
		Time:  inner.Time,
		Power: inner.Power,
		Lag:   ts.inner.LagAt(inner.Spec.Index),
	}, true
}

// Frames iterates the remaining frames in index order, blocking as the
// capture runs; stopping the iteration early does not cancel the
// capture (cancel the TrackStream context for that).
func (ts *TrackStream) Frames() iter.Seq[StreamFrame] {
	return func(yield func(StreamFrame) bool) {
		for {
			fr, ok := ts.Next()
			if !ok || !yield(fr) {
				return
			}
		}
	}
}

// Err returns the stream's terminal error: nil while running or after a
// clean finish, the cause (including context cancellation) otherwise.
func (ts *TrackStream) Err() error { return ts.inner.Err() }

// TotalFrames returns the number of frames the full capture will emit.
func (ts *TrackStream) TotalFrames() int { return ts.inner.TotalFrames() }

// WindowDuration returns the wall-clock span of one analysis window —
// the natural service-level objective unit for frame Lag: a chain whose
// p95 lag stays below one window is keeping up with the radio.
func (ts *TrackStream) WindowDuration() time.Duration { return ts.inner.WindowDuration() }

// Thetas returns the angle grid (degrees) the frame spectra are sampled
// on: ascending over [-90, 90], positive toward the device.
func (ts *TrackStream) Thetas() []float64 { return ts.inner.Thetas() }

// Result blocks until the capture completes and returns the assembled
// tracking result, byte-identical to what Track(duration) would have
// produced on the same scene.
func (ts *TrackStream) Result() (*TrackingResult, error) {
	img, _, err := ts.inner.Result()
	if err != nil {
		return nil, err
	}
	return &TrackingResult{img: img, dev: ts.dev}, nil
}

// TrackManyOptions configures a batch tracking run.
type TrackManyOptions struct {
	// Workers bounds the scene-level worker pool. 0 routes the batch
	// through the shared per-process engine (one worker per CPU), so
	// concurrent callers multiplex instead of oversubscribing; a
	// positive value runs the batch on a private pool of that size. The
	// output never depends on the worker count — only on each device's
	// own measurement stream.
	Workers int
}

// TrackMany captures duration seconds on every device concurrently,
// multiplexing the scenes over an engine with context cancellation.
// results[i] belongs to devices[i] and is identical to what
// devices[i].Track(duration) would have returned. On failure the error
// reports the first failing scene (a nil device counts as one) while
// the remaining entries are still returned; failed scenes are nil in
// the slice.
func TrackMany(ctx context.Context, devices []*Device, duration float64, opts TrackManyOptions) ([]*TrackingResult, error) {
	if len(devices) == 0 {
		return nil, nil
	}
	eng := defaultEngine()
	if opts.Workers > 0 {
		private := NewEngine(EngineOptions{Workers: opts.Workers, QueueDepth: len(devices)})
		defer private.Close()
		eng = private
	}
	handles := make([]*Handle, len(devices))
	errs := make([]error, len(devices))
	for i, d := range devices {
		if d == nil {
			errs[i] = errors.New("wivi: nil device")
			continue
		}
		h, err := eng.Submit(ctx, Request{Device: d, Duration: duration})
		if err != nil {
			errs[i] = err
			continue
		}
		handles[i] = h
	}
	out := make([]*TrackingResult, len(devices))
	var firstErr error
	for i := range devices {
		err := errs[i]
		if handles[i] != nil {
			var res *Result
			if res, err = handles[i].Wait(ctx); err == nil {
				out[i] = res.Tracking
				continue
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("wivi: scene %d: %w", i, err)
		}
	}
	return out, firstErr
}

// NumFrames returns the number of angle-spectrum frames.
func (r *TrackingResult) NumFrames() int { return r.img.NumFrames() }

// Equal reports whether two tracking results carry bit-identical
// angle-time images (every spectrum value, frame time and per-frame
// metadatum). The concurrent engine guarantees Equal results for the
// same scene whatever the worker count; wivi-bench's batch mode checks
// exactly this.
func (r *TrackingResult) Equal(other *TrackingResult) bool {
	if r == nil || other == nil {
		return r == other
	}
	return reflect.DeepEqual(r.img, other.img)
}

// FrameTime returns the center time of frame f in seconds.
func (r *TrackingResult) FrameTime(f int) float64 { return r.img.Times[f] }

// AnglesAt returns up to max dominant non-DC angles (degrees) of frame
// f. Positive angles mean motion toward the device (§5.1).
func (r *TrackingResult) AnglesAt(f, max int) []float64 {
	return r.img.DominantAngles(f, max, 8)
}

// SpatialVariance returns the trial-level counting statistic (§5.2).
func (r *TrackingResult) SpatialVariance() float64 {
	return r.dev.pipeline.SpatialVariance(r.img)
}

// Heatmap renders the angle-time image as ASCII art (the Fig. 5-2
// style): +90 degrees at the top, time left to right.
func (r *TrackingResult) Heatmap(width, height int) string {
	return strings.Join(renderHeatmap(r.img, width, height), "\n")
}

// Counter classifies tracking captures into a number of moving humans
// (§5.2, Table 7.1).
type Counter struct {
	clf *detect.Classifier
}

// TrainCounter learns count thresholds from labeled spatial variances:
// samples[k] holds SpatialVariance values observed with k humans.
func TrainCounter(samples map[int][]float64) (*Counter, error) {
	clf, err := detect.Train(samples)
	if err != nil {
		return nil, err
	}
	return &Counter{clf: clf}, nil
}

// Count classifies one tracking result.
func (c *Counter) Count(r *TrackingResult) int {
	return c.clf.Classify(r.SpatialVariance())
}

// DecodedMessage is the outcome of gesture decoding (§6.2).
type DecodedMessage struct {
	// Bits are the decoded bits in order.
	Bits []Bit
	// SNRsDB holds the per-bit gesture SNR.
	SNRsDB []float64
	// Erasures counts gestures whose SNR fell below the 3 dB gate
	// (dropped, never flipped; §7.5).
	Erasures int
	// Steps counts all detected step events.
	Steps int
}

// DecodeMessage captures duration seconds in gesture mode and decodes
// the step gestures into bits.
func (d *Device) DecodeMessage(duration float64) (*DecodedMessage, error) {
	return d.DecodeMessageCtx(context.Background(), duration)
}

// DecodeMessageCtx is DecodeMessage with cancellation. Like TrackCtx,
// the request is scheduled on the shared default engine (captures of
// one device serialize; the gesture decode itself is pure compute), so
// gesture captures multiplex fairly with tracking traffic instead of
// bypassing the worker pool. Gesture is per-request data — no device
// state changes — so concurrent Track and DecodeMessage calls on one
// device are safe and each sees exactly its own mode.
func (d *Device) DecodeMessageCtx(ctx context.Context, duration float64) (*DecodedMessage, error) {
	h, err := defaultEngine().Submit(ctx, Request{Device: d, Duration: duration, Mode: Gesture})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res.Message, nil
}

// String renders the decoded bits as a "0101" string.
func (m *DecodedMessage) String() string {
	var b strings.Builder
	for _, bit := range m.Bits {
		fmt.Fprintf(&b, "%d", bit)
	}
	return b.String()
}
