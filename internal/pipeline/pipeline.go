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
// SubmitStream schedules a streaming capture (stream.go): the request
// occupies one worker slot from its first chunk to its last frame, with
// admissions capped at Workers-1 so batch submits always keep a worker.
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
	// Observe executes one request (capture + image + mode-selected
	// decode) and returns the observation.
	Observe(ctx context.Context, req core.TrackRequest) (*core.Observation, error)
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
	// StartT and Duration delimit the capture in seconds.
	StartT, Duration float64
	// Deadline bounds the request's acceptable end-to-end latency
	// (accept to completion); zero means none. Submit rejects the
	// request with ErrDeadlineInfeasible when the pool provably cannot
	// meet it — see Engine.admitDeadline for the model.
	Deadline time.Duration
	// Paced marks a request whose capture is delivered at the radio's
	// real sample cadence (core.PacedFrontEnd): its wall-clock service
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
	// Trace is the captured channel trace (nil on error).
	Trace *core.Trace
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
	done chan struct{}
	res  Result
}

// Done returns a channel closed when the result is ready.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the result is ready or ctx is done. A result that is
// already ready is always returned, even when ctx is also done — work
// that completed is never discarded. On cancellation it returns a Result
// carrying ctx's error; the request itself may still complete in the
// background.
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

type job struct {
	ctx context.Context
	req Request
	h   *Handle
	// enq timestamps the enqueue, for queue-wait accounting.
	enq time.Time
	// stream/sh are set instead of req/h for streaming jobs.
	stream *StreamRequest
	sh     *StreamHandle
}

// ErrClosed is returned by Submit after Close, and delivered to handles
// whose requests were still queued when the engine shut down.
var ErrClosed = errors.New("pipeline: engine closed")

// ErrDeadlineInfeasible is returned by Submit and SubmitStream when the
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
	// a worker left). See SubmitStream.
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

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// MaxStreams returns the concurrent-stream admission cap.
func (e *Engine) MaxStreams() int { return e.cfg.MaxStreams }

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

// Stats returns a snapshot of the engine's counters. Batch counters are
// updated before a request's handle resolves; stream counters settle
// just after the stream's Done fires, so a caller that has waited out
// every submitted handle sees Completed+Failed reach the submission
// count within one scheduling beat.
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

// finishJob records a batch result in the stats counters. Must run
// before the handle resolves so Stats never under-counts settled work.
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
			if j.stream != nil {
				e.runStream(j)
				continue
			}
			e.running.Add(1)
			wait := e.clock.Now().Sub(j.enq)
			serviceStart := e.clock.Now()
			res := run(j.ctx, j.req)
			service := e.clock.Now().Sub(serviceStart)
			res.QueueWait = wait
			e.queueWaitHist.Observe(wait)
			e.e2eHist.Observe(wait + service)
			if res.Err == nil {
				e.noteService(service)
			}
			j.h.res = res
			e.finishJob(res)
			e.running.Add(-1)
			close(j.h.done)
		}
	}
}

func run(ctx context.Context, req Request) Result {
	if req.Tracker == nil {
		return Result{Mode: req.Mode, Err: errors.New("pipeline: nil tracker")}
	}
	if err := ctx.Err(); err != nil {
		return Result{Mode: req.Mode, Err: err}
	}
	obs, err := req.Tracker.Observe(ctx, core.TrackRequest{
		Mode:     req.Mode,
		StartT:   req.StartT,
		Duration: req.Duration,
	})
	if err != nil {
		return Result{Mode: req.Mode, Err: err}
	}
	return Result{Mode: req.Mode, Image: obs.Image, Trace: obs.Trace, Gestures: obs.Gestures}
}

// Submit enqueues one request and returns its future. It blocks while
// the queue is full, until ctx is done, or until the engine closes. The
// request observes ctx again when a worker picks it up and during its
// frame processing.
func (e *Engine) Submit(ctx context.Context, req Request) (*Handle, error) {
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
	select {
	case e.jobs <- job{ctx: ctx, req: req, h: h, enq: e.clock.Now()}:
		return h, nil
	case <-e.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
	if j.stream != nil {
		failStream(j)
		<-e.streamSlots
		return
	}
	j.h.res = Result{Mode: j.req.Mode, Err: ErrClosed}
	close(j.h.done)
}
