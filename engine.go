package wivi

// The Engine service API: explicit worker pools, per-request modes,
// mixed workloads.
//
// An Engine owns one bounded worker pool and is the single scheduling
// entry point of the package — Device.Track, TrackStream and
// DecodeMessage each build one Request and submit it to a lazily
// created default engine. Servers that need pool isolation (per tenant,
// per priority class) and batch callers that size their own pool
// create their own:
//
//	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 8})
//	defer eng.Close()
//	h, _ := eng.Submit(ctx, wivi.Request{Device: dev, Duration: 10, Mode: wivi.Gesture})
//	res, _ := h.Wait(ctx)
//	fmt.Println(res.Message)
//
// Mode is request data, never device state: a tracking request and a
// gesture request may target the same device concurrently, and each is
// processed under exactly its own mode (the captures themselves
// serialize on the device — one radio is one stateful instrument).

import (
	"context"
	"errors"
	"sync"
	"time"

	"wivi/internal/core"
	"wivi/internal/gesture"
	"wivi/internal/isar"
	"wivi/internal/pipeline"
)

// Mode selects a request's processing (§3.2). The capture and imaging
// stages are identical for both modes — the paper runs one pipeline —
// so the mode selects only the decode applied to the finished image.
type Mode int

const (
	// Track images and tracks motion behind the wall (the §5 ISAR chain).
	Track Mode = iota
	// Gesture additionally decodes gesture-encoded messages (§6.2).
	Gesture
)

// String renders the mode.
func (m Mode) String() string {
	if m == Gesture {
		return "gesture"
	}
	return "track"
}

func (m Mode) core() core.Mode {
	if m == Gesture {
		return core.ModeGesture
	}
	return core.ModeTracking
}

// ErrEngineClosed is returned by Submit after Close, and by Wait for
// requests that were still queued when the engine shut down.
var ErrEngineClosed = errors.New("wivi: engine closed")

// ErrDeadlineInfeasible is returned by Submit when the request carries
// a Deadline the pool provably cannot meet: a paced device's capture
// takes at least Request.Duration of wall clock (samples arrive at the
// radio's cadence), and that floor plus the estimated queue wait
// already exceeds the deadline. Rejecting at submission lets a loaded
// service shed work that would be guaranteed late instead of burning a
// worker on it.
var ErrDeadlineInfeasible = errors.New("wivi: deadline infeasible under pacing")

// translateErr maps internal scheduler errors onto the public
// sentinels.
func translateErr(err error) error {
	if errors.Is(err, pipeline.ErrClosed) {
		return ErrEngineClosed
	}
	if errors.Is(err, pipeline.ErrDeadlineInfeasible) {
		return ErrDeadlineInfeasible
	}
	return err
}

// EngineOptions sizes an engine's worker pool.
type EngineOptions struct {
	// Workers is the number of concurrent captures; default one per CPU.
	Workers int
	// QueueDepth bounds the submit queue (Submit blocks while it is
	// full — backpressure); default 2*Workers.
	QueueDepth int
	// MaxStreams caps concurrently admitted streaming requests; default
	// Workers-1 (min 1), which always keeps a worker free for batch
	// requests. Raising it to Workers trades that guarantee for stream
	// capacity.
	MaxStreams int
}

// Engine is an explicitly owned scheduling pool for Wi-Vi observations.
// All package entry points (Device.Track, TrackStream, DecodeMessage)
// route through an engine; NewEngine gives multi-tenant servers their
// own isolated pools with explicit lifecycle and observability. Engines
// are safe for concurrent use.
type Engine struct {
	inner *pipeline.Engine
}

// NewEngine starts an engine with its own worker pool. Close it when
// done; an engine holds goroutines, not just memory.
func NewEngine(opts EngineOptions) *Engine {
	return &Engine{inner: pipeline.New(pipeline.Config{
		Workers:    opts.Workers,
		QueueDepth: opts.QueueDepth,
		MaxStreams: opts.MaxStreams,
	})}
}

// Close drains the engine: requests already executing run to
// completion, still-queued requests fail with ErrEngineClosed, and
// subsequent Submits are rejected with ErrEngineClosed. Close blocks
// until every worker has stopped and is idempotent.
func (e *Engine) Close() error {
	e.inner.Close()
	return nil
}

// EngineStats is a point-in-time snapshot of engine load plus lifetime
// throughput counters. The JSON tags are the wire layout internal/serve
// exports on /v1/stats (and mirrors in Prometheus form on /metrics), so
// renaming one is a service-API break, not just a library one.
type EngineStats struct {
	// Workers and MaxStreams echo the engine sizing.
	Workers    int `json:"workers"`
	MaxStreams int `json:"max_streams"`
	// Queued counts accepted requests no worker has picked up yet.
	Queued int `json:"queued"`
	// InFlight counts requests executing right now; streaming requests
	// count from admission to their final frame.
	InFlight int `json:"in_flight"`
	// ActiveStreams is the streaming subset of InFlight.
	ActiveStreams int `json:"active_streams"`
	// Completed and Failed count finished requests (Failed includes
	// cancellations and shutdown rejections).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Frames counts image frames produced by finished requests;
	// FramesPerSecond averages them over the engine's lifetime — the
	// imaging-throughput figure of merit.
	Frames          int64   `json:"frames"`
	FramesPerSecond float64 `json:"frames_per_second"`
	// QueueWait distributes how long requests sat accepted but not yet
	// picked up; EndToEnd distributes accept-to-completion latency;
	// FrameLag distributes streamed frames' wall-clock lag (emit instant
	// minus the arrival of the frame window's last sample — the
	// real-time SLO dimension for paced devices). Percentiles are
	// nearest-rank over the most recent sample window.
	QueueWait LatencyProfile `json:"queue_wait"`
	FrameLag  LatencyProfile `json:"frame_lag"`
	EndToEnd  LatencyProfile `json:"end_to_end"`
}

// LatencyProfile summarizes one wall-clock latency dimension of an
// engine: lifetime observation count and nearest-rank percentiles over
// the most recent samples. Durations marshal as integer nanoseconds
// (Go's time.Duration representation), hence the _ns tag suffixes.
type LatencyProfile struct {
	// Count is the lifetime number of observations.
	Count int64 `json:"count"`
	// P50, P95 and P99 are nearest-rank percentiles; zero when nothing
	// has been recorded.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

func latencyProfile(s pipeline.LatencyStats) LatencyProfile {
	return LatencyProfile{Count: s.Count, P50: s.P50, P95: s.P95, P99: s.P99}
}

// Stats snapshots the engine's counters. Every request, batch or
// streaming, settles its counters before Wait returns.
func (e *Engine) Stats() EngineStats {
	s := e.inner.Stats()
	return EngineStats{
		Workers:         s.Workers,
		MaxStreams:      s.MaxStreams,
		Queued:          s.Queued,
		InFlight:        s.InFlight,
		ActiveStreams:   s.ActiveStreams,
		Completed:       s.Completed,
		Failed:          s.Failed,
		Frames:          s.Frames,
		FramesPerSecond: s.FramesPerSecond,
		QueueWait:       latencyProfile(s.QueueWait),
		FrameLag:        latencyProfile(s.FrameLag),
		EndToEnd:        latencyProfile(s.EndToEnd),
	}
}

// Request is one observation to schedule: which device, for how long,
// processed how. The zero Mode is Track, so the minimal request reads
// Request{Device: dev, Duration: 10}.
type Request struct {
	// Device is the device to capture on. Captures of one device
	// serialize (one radio is one stateful instrument); requests for
	// different devices run in parallel across the pool.
	Device *Device
	// Duration is the capture length in seconds.
	Duration float64
	// Mode selects the processing: Track stops at the angle-time image,
	// Gesture also decodes the step gestures into a message. Mode is
	// data on this request only — it never mutates the device, so mixed
	// modes on one device are safe.
	Mode Mode
	// Stream requests incremental emission: frames arrive via
	// Handle.Stream while the capture runs, instead of all at once at
	// Wait. Streaming requests occupy a worker from admission to final
	// frame and are capped by EngineOptions.MaxStreams.
	Stream bool
	// Deadline bounds the request's acceptable end-to-end latency
	// (accept to completion); zero means none. Submit fails with
	// ErrDeadlineInfeasible when the engine provably cannot meet it —
	// for a paced device (DeviceOptions.Paced) the capture's wall-clock
	// span is floored at Duration, so any tighter deadline is rejected
	// before the request consumes queue or worker capacity.
	Deadline time.Duration
}

// Result is the outcome of one request.
type Result struct {
	// Mode echoes the request mode.
	Mode Mode
	// Tracking carries the angle-time image; always set on success.
	Tracking *TrackingResult
	// Message is the decoded gesture message; set iff Mode is Gesture.
	Message *DecodedMessage
	// QueueWait is how long the request waited for a worker after being
	// accepted — the engine's congestion signal.
	QueueWait time.Duration
}

// Handle is the future for a submitted request. Wait joins the final
// result; Stream (for Stream requests) returns the live frame stream.
// Handles are safe for concurrent use.
type Handle struct {
	dev   *Device
	mode  Mode
	inner *pipeline.Handle

	once sync.Once
	res  *Result
}

// Submit enqueues one request and returns its future. It blocks while
// the queue is full (or, for streaming requests, while every stream
// admission slot is taken), until ctx is done, or until the engine
// closes. The request keeps observing ctx while queued and during its
// capture.
func (e *Engine) Submit(ctx context.Context, req Request) (*Handle, error) {
	if req.Device == nil {
		return nil, errors.New("wivi: nil device in request")
	}
	h, err := e.inner.Submit(ctx, pipeline.Request{
		Tracker:  req.Device.pipeline,
		Mode:     req.Mode.core(),
		Duration: req.Duration,
		Stream:   req.Stream,
		Deadline: req.Deadline,
		Paced:    req.Device.paced,
	})
	if err != nil {
		return nil, translateErr(err)
	}
	return &Handle{dev: req.Device, mode: req.Mode, inner: h}, nil
}

// Wait blocks until the request finishes and returns its result. A
// result that is ready is always returned even when ctx is also done —
// completed work is never discarded; on cancellation Wait returns ctx's
// error while the request itself may still complete in the background.
// For streaming requests Wait joins the assembled end state (frames can
// be consumed concurrently via Stream).
func (h *Handle) Wait(ctx context.Context) (*Result, error) {
	r := h.inner.Wait(ctx)
	if r.Err != nil {
		return nil, translateErr(r.Err)
	}
	h.once.Do(func() {
		h.res = h.newResult(r.Image, r.Gestures, r.QueueWait)
	})
	return h.res, nil
}

func (h *Handle) newResult(img *isar.Image, g *gesture.Result, wait time.Duration) *Result {
	res := &Result{
		Mode:      h.mode,
		Tracking:  &TrackingResult{img: img, dev: h.dev},
		QueueWait: wait,
	}
	if g != nil {
		res.Message = decodedMessage(g)
	}
	return res
}

// Stream returns the live frame stream of a Stream request, blocking
// until the capture has started (or failed to). Requests submitted
// without Stream have no frame stream and get an error.
func (h *Handle) Stream(ctx context.Context) (*TrackStream, error) {
	st, err := h.inner.Stream(ctx)
	if err != nil {
		return nil, translateErr(err)
	}
	return &TrackStream{dev: h.dev, inner: st}, nil
}

// decodedMessage converts the internal gesture decode into the public
// message type.
func decodedMessage(res *gesture.Result) *DecodedMessage {
	out := &DecodedMessage{
		SNRsDB:   append([]float64(nil), res.BitSNRsDB...),
		Erasures: res.Erasures,
		Steps:    len(res.Steps),
	}
	for _, b := range res.Bits {
		out.Bits = append(out.Bits, Bit(b))
	}
	return out
}

// sharedEngine is the lazily started engine behind the Device methods
// (Track, TrackStream, DecodeMessage): a pool sized to the machine,
// shared by every device so independent callers multiplex instead of
// oversubscribing. Servers that need isolation own explicit engines via
// NewEngine.
var (
	engineOnce   sync.Once
	sharedEngine *Engine
)

func defaultEngine() *Engine {
	engineOnce.Do(func() { sharedEngine = NewEngine(EngineOptions{}) })
	return sharedEngine
}
