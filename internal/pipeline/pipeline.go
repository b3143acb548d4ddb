// Package pipeline is the concurrent tracking engine: it multiplexes
// many independent track captures over a bounded worker pool, turning
// the one-shot Device.Track call into a servable batch primitive.
//
// The parallelism model follows the physics. One radio is a stateful
// instrument (AGC, oscillator phase, noise), so captures of a single
// device serialize inside core.Device; different scenes have different
// devices and run fully in parallel. Within one capture, the ISAR chain
// fans out per frame (see internal/isar's stage decomposition) and fans
// back in by index. Both levels are deterministic: submitting the same
// requests yields byte-identical images for every worker count, because
// no result depends on goroutine scheduling — only on each device's own
// measurement stream.
//
// Submit returns a Handle future immediately (blocking only when the
// bounded queue is full), and Handle.Wait joins the result.
// Cancellation is cooperative — a canceled context fails queued
// requests before their capture starts and stops in-flight frame
// processing between frames.
//
// A stream is a Request with Stream set, served by the same Submit,
// worker and Handle: Handle.Stream returns its live frames once a worker
// has started the capture, and the worker assembles its result after the
// last frame, as it does a batch request's. A stream occupies its worker
// from first chunk to last frame, so the engine carves stream admissions
// out of the worker budget: at most MaxStreams (default Workers-1) run
// at once, one worker always stays free for batch requests, and Submit
// blocks — honoring its context — until an admission slot frees up.
// A 1-worker engine (GOMAXPROCS=1 hosts) still admits one stream —
// refusing all streams would be worse — so there batch submits DO queue
// behind an in-flight stream until it completes or its context is
// canceled. Reservation needs at least two workers.
package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wivi/internal/core"
	"wivi/internal/gesture"
	"wivi/internal/isar"
)

// Tracker is one observation-capable device. *core.Device implements it;
// tests substitute fakes. The request carries the mode, so one Tracker
// serves mixed track/gesture traffic without any mutable mode state.
type Tracker interface {
	// Observe executes one batch request (capture + image +
	// mode-selected decode) and returns the observation.
	Observe(ctx context.Context, req core.TrackRequest) (*core.Observation, error)
	// ObserveStream starts an incremental capture of the request's span;
	// frames arrive through the returned Stream, and the request's mode
	// selects the decode applied at assembly (Stream.Observation).
	ObserveStream(ctx context.Context, req core.TrackRequest) (*core.Stream, error)
}

// Config sizes the engine.
type Config struct {
	// Workers is the number of scene-level workers; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the submit queue (Submit blocks when it is
	// full); default 2*Workers.
	QueueDepth int
	// MaxStreams caps concurrent streaming captures. Default Workers-1
	// (min 1), which always reserves a worker for batch submits; setting
	// MaxStreams >= Workers trades that guarantee for stream capacity.
	MaxStreams int
	// Clock supplies every timestamp behind the engine's latency
	// accounting (queue wait, service time, end-to-end, frames/sec);
	// default core.RealClock(). Tests inject a core.FakeClock to make
	// latency figures exact rather than host-scheduler-dependent.
	Clock core.Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = c.Workers - 1
		if c.MaxStreams < 1 {
			c.MaxStreams = 1
		}
	}
	if c.Clock == nil {
		c.Clock = core.RealClock()
	}
	return c
}

// Request is one capture to schedule.
type Request struct {
	// Tracker is the device to drive.
	Tracker Tracker
	// Mode is the per-request processing mode, threaded to the tracker
	// unchanged (no device state is mutated to select it).
	Mode core.Mode
	// Duration is the capture length in seconds.
	Duration float64
	// Stream runs the capture incrementally: Handle.Stream returns the
	// live frames while the capture runs, and the request holds one of
	// Config.MaxStreams admission slots from Submit until its result is
	// assembled.
	Stream bool
	// Deadline bounds the request's acceptable end-to-end latency
	// (accept to completion); zero means none. Submit rejects the
	// request with ErrDeadlineInfeasible when the pool provably cannot
	// meet it — see Engine.admitDeadline for the model.
	Deadline time.Duration
	// Paced marks a request whose capture is delivered at the radio's
	// real sample cadence (core.Config.Pace): its wall-clock service
	// time is floored at Duration whatever the CPU does, which is what
	// makes deadline admission decidable.
	Paced bool
}

// Result is the outcome of one request.
type Result struct {
	// Mode echoes the request mode.
	Mode core.Mode
	// Image is the angle-time image (nil on error).
	Image *isar.Image
	// Gestures is the decode result for ModeGesture requests.
	Gestures *gesture.Result
	// QueueWait is how long the request sat queued before a worker
	// picked it up.
	QueueWait time.Duration
	// Err reports the failure, including context cancellation.
	Err error
}

// Handle is the future for a submitted request.
type Handle struct {
	// started is closed once a worker has started a stream request's
	// capture (stream set) or the request resolved without starting it;
	// it is nil for batch requests.
	started chan struct{}
	stream  *core.Stream
	done    chan struct{}
	res     Result
}

// Wait blocks until the result is ready or ctx is done. A result that is
// already ready is always returned, even when ctx is also done — work
// that completed is never discarded. On cancellation it returns a Result
// carrying ctx's error; the request itself may still complete in the
// background. A stream's result is ready once its last frame is emitted
// and its image assembled.
func (h *Handle) Wait(ctx context.Context) Result {
	select {
	case <-h.done:
		return h.res
	default:
	}
	select {
	case <-h.done:
		return h.res
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	}
}

// Stream blocks until a worker has started a stream request's capture
// and returns the live stream, or the error that kept it from starting.
// On ctx cancellation the request itself stays queued — like Wait, work
// already submitted is never retracted. A request submitted without
// Stream has no frame stream and gets an error at once.
func (h *Handle) Stream(ctx context.Context) (*core.Stream, error) {
	if h.started == nil {
		return nil, errors.New("pipeline: request was not submitted with Stream")
	}
	select {
	case <-h.started:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if h.stream == nil {
		<-h.done
		return nil, h.res.Err
	}
	return h.stream, nil
}

// resolve publishes a request's result; a stream that never started
// learns its error through it too.
func (h *Handle) resolve(res Result) {
	h.res = res
	if h.started != nil && h.stream == nil {
		close(h.started)
	}
	close(h.done)
}

type job struct {
	ctx context.Context
	req Request
	h   *Handle
	// enq timestamps the enqueue, for queue-wait accounting.
	enq time.Time
}

// ErrClosed is returned by Submit after Close, and delivered to handles
// whose requests were still queued when the engine shut down.
var ErrClosed = errors.New("pipeline: engine closed")

// ErrDeadlineInfeasible is returned by Submit when the
// request carries a Deadline the pool provably cannot meet: a paced
// capture's wall-clock floor (its Duration) plus the estimated queue
// wait already exceeds it. Failing at submission beats accepting work
// that is guaranteed late — the caller can shed load or resize the pool.
var ErrDeadlineInfeasible = errors.New("pipeline: deadline infeasible under pacing")

// Engine is a bounded worker pool executing tracking requests.
type Engine struct {
	cfg   Config
	clock core.Clock
	jobs  chan job
	quit  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	// streamSlots admits long-lived streaming jobs: capacity
	// Config.MaxStreams (default Workers-1, so batch submits always have
	// a worker left). Submit takes a slot; the worker releases it.
	streamSlots chan struct{}

	// Observability counters behind Stats(). Queued is read off the jobs
	// channel length; the rest are lifetime atomics.
	running       atomic.Int64 // requests a worker is executing now
	activeStreams atomic.Int64 // streams between admission and last frame
	completed     atomic.Int64 // requests finished without error
	failed        atomic.Int64 // requests finished with an error
	frames        atomic.Int64 // image frames produced by finished requests

	// Latency distributions behind Stats() (latency.go), plus an EWMA of
	// batch service time (nanoseconds) feeding deadline admission.
	// Streams are excluded from the EWMA: a paced stream's service time
	// is clock-bound, not a measure of pool speed.
	queueWaitHist LatencyRecorder
	frameLagHist  LatencyRecorder
	e2eHist       LatencyRecorder
	serviceEWMA   atomic.Int64

	// mu guards closed; inflight counts Submits past the closed check,
	// so Close can wait out every concurrent enqueue before it drains
	// the queue. The blocking send itself happens outside any lock, so
	// a Submit stuck on a full queue unblocks the moment quit closes.
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// New starts an engine with cfg's worker pool.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:         cfg,
		clock:       cfg.Clock,
		jobs:        make(chan job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		start:       cfg.Clock.Now(),
		streamSlots: make(chan struct{}, cfg.MaxStreams),
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Stats is a point-in-time snapshot of engine load plus lifetime
// throughput counters.
type Stats struct {
	// Workers and MaxStreams echo the engine sizing.
	Workers, MaxStreams int
	// Queued counts accepted requests no worker has picked up yet.
	Queued int
	// InFlight counts requests executing right now; streams count from
	// admission to their last frame.
	InFlight int
	// ActiveStreams is the streaming subset of InFlight.
	ActiveStreams int
	// Completed and Failed count finished requests (Failed includes
	// cancellations and ErrClosed rejections of queued work).
	Completed, Failed int64
	// Frames counts image frames produced by finished requests, and
	// FramesPerSecond averages them over the engine's lifetime — the
	// imaging-throughput figure of merit.
	Frames          int64
	FramesPerSecond float64
	// QueueWait distributes the time requests sat accepted-but-unpicked;
	// FrameLag distributes streamed frames' emit-vs-arrival lag (the
	// real-time SLO dimension under pacing); EndToEnd distributes accept
	// to completion. Percentiles cover the most recent sample window.
	QueueWait, FrameLag, EndToEnd LatencyStats
}

// Stats returns a snapshot of the engine's counters. Every counter
// settles before the request's handle resolves, for streams as for
// batch requests, so a caller that has waited out every submitted handle
// sees Completed+Failed equal the submission count.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:       e.cfg.Workers,
		MaxStreams:    e.cfg.MaxStreams,
		Queued:        len(e.jobs),
		InFlight:      int(e.running.Load()),
		ActiveStreams: int(e.activeStreams.Load()),
		Completed:     e.completed.Load(),
		Failed:        e.failed.Load(),
		Frames:        e.frames.Load(),
	}
	if elapsed := e.clock.Now().Sub(e.start).Seconds(); elapsed > 0 {
		s.FramesPerSecond = float64(s.Frames) / elapsed
	}
	s.QueueWait = e.queueWaitHist.Snapshot()
	s.FrameLag = e.frameLagHist.Snapshot()
	s.EndToEnd = e.e2eHist.Snapshot()
	return s
}

// noteService folds one batch service time into the EWMA (alpha = 1/8)
// the deadline admission model uses as its per-request cost estimate.
func (e *Engine) noteService(d time.Duration) {
	for {
		old := e.serviceEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if e.serviceEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// admitDeadline decides whether a request's Deadline is feasible at
// submission time. The model is deliberately conservative — it only
// rejects what is provably late:
//
//   - a paced request's service time is floored at its capture Duration
//     (samples arrive at SampleT cadence; no CPU makes them earlier);
//   - queued work ahead costs at least queued/Workers times the observed
//     mean batch service time (zero until the engine has history).
//
// floor + estimated queue wait > Deadline is a guaranteed miss, so the
// submission fails fast with ErrDeadlineInfeasible instead of occupying
// queue and worker capacity to produce a late answer.
func (e *Engine) admitDeadline(deadline time.Duration, durationSec float64, paced bool) error {
	if deadline <= 0 {
		return nil
	}
	var floor time.Duration
	if paced {
		floor = time.Duration(durationSec * float64(time.Second))
	}
	if mean := e.serviceEWMA.Load(); mean > 0 {
		floor += time.Duration(mean * int64(len(e.jobs)) / int64(e.cfg.Workers))
	}
	if floor > deadline {
		return ErrDeadlineInfeasible
	}
	return nil
}

// finishJob records a result in the stats counters. Must run before the
// handle resolves so Stats never under-counts settled work.
func (e *Engine) finishJob(res Result) {
	if res.Err != nil {
		e.failed.Add(1)
		return
	}
	e.completed.Add(1)
	if res.Image != nil {
		e.frames.Add(int64(res.Image.NumFrames()))
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		// Give quit strict priority over queued work: once Close fires, a
		// worker finishing its capture exits here instead of draining the
		// queue, so still-queued requests fail fast with ErrClosed.
		select {
		case <-e.quit:
			return
		default:
		}
		select {
		case <-e.quit:
			return
		case j := <-e.jobs:
			// The select picks uniformly when quit and a queued job are
			// ready at once; re-checking quit here makes the shutdown
			// contract hold either way — a request fails with ErrClosed
			// unless its execution began before Close fired.
			select {
			case <-e.quit:
				e.failJob(j)
				return
			default:
			}
			e.serve(j)
		}
	}
}

// serve executes one job on the calling worker and resolves its handle
// once every counter has settled. A stream holds the worker, and its
// admission slot, until its result is assembled.
func (e *Engine) serve(j job) {
	e.running.Add(1)
	if j.req.Stream {
		e.activeStreams.Add(1)
	}
	start := e.clock.Now()
	res := e.run(j)
	service := e.clock.Now().Sub(start)
	res.QueueWait = start.Sub(j.enq)
	e.queueWaitHist.Observe(res.QueueWait)
	e.e2eHist.Observe(res.QueueWait + service)
	if res.Err == nil && !j.req.Stream {
		e.noteService(service)
	}
	e.finishJob(res)
	if j.req.Stream {
		e.activeStreams.Add(-1)
		<-e.streamSlots
	}
	e.running.Add(-1)
	j.h.resolve(res)
}

// run executes one request. A stream is handed to its submitter as soon
// as its capture starts; the stream honors its context at chunk
// granularity, so a canceled caller frees the worker promptly.
func (e *Engine) run(j job) Result {
	req := j.req
	if err := j.ctx.Err(); err != nil {
		return Result{Mode: req.Mode, Err: err}
	}
	treq := core.TrackRequest{Mode: req.Mode, Duration: req.Duration}
	var obs *core.Observation
	var err error
	if req.Stream {
		var st *core.Stream
		if st, err = req.Tracker.ObserveStream(j.ctx, treq); err != nil {
			return Result{Mode: req.Mode, Err: err}
		}
		j.h.stream = st
		close(j.h.started)
		obs, err = st.Observation()
		for _, lag := range st.Lags() {
			e.frameLagHist.Observe(lag)
		}
	} else {
		obs, err = req.Tracker.Observe(j.ctx, treq)
	}
	if err != nil {
		return Result{Mode: req.Mode, Err: err}
	}
	return Result{Mode: req.Mode, Image: obs.Image, Gestures: obs.Gestures}
}

// Submit enqueues one request and returns its future. It blocks while
// the queue is full (or, for a stream, while every stream admission slot
// is taken), until ctx is done, or until the engine closes. The request
// observes ctx again when a worker picks it up and during its capture
// and frame processing.
func (e *Engine) Submit(ctx context.Context, req Request) (*Handle, error) {
	if req.Tracker == nil {
		return nil, errors.New("pipeline: nil tracker")
	}
	if err := e.admitDeadline(req.Deadline, req.Duration, req.Paced); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	h := &Handle{done: make(chan struct{})}
	if req.Stream {
		// Admission first: holding at most MaxStreams stream slots
		// (default Workers-1) keeps a worker for batch submits.
		select {
		case e.streamSlots <- struct{}{}:
		case <-e.quit:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		h.started = make(chan struct{})
	}
	var err error
	select {
	case e.jobs <- job{ctx: ctx, req: req, h: h, enq: e.clock.Now()}:
		return h, nil
	case <-e.quit:
		err = ErrClosed
	case <-ctx.Done():
		err = ctx.Err()
	}
	if req.Stream {
		<-e.streamSlots
	}
	return nil, err
}

// Close stops the workers and fails any still-queued requests with
// ErrClosed; Submits blocked on a full queue unblock immediately with
// ErrClosed. It waits for in-flight captures to finish. Close is
// idempotent; Submit after Close returns ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	// No Submit passes the closed check anymore; once the in-flight ones
	// return (enqueued, unblocked by quit, or canceled), the queue is
	// final and the drain below reaches every leftover handle.
	e.inflight.Wait()
	e.wg.Wait()
	for {
		select {
		case j := <-e.jobs:
			e.failJob(j)
		default:
			return
		}
	}
}

// failJob reports a job that will never execute (engine closed),
// releasing a stream job's admission slot.
func (e *Engine) failJob(j job) {
	e.failed.Add(1)
	if j.req.Stream {
		<-e.streamSlots
	}
	j.h.resolve(Result{Mode: j.req.Mode, Err: ErrClosed})
}
