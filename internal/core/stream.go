package core

// Streaming tracking: the capture→combine→frame→image chain run
// incrementally. The batch path buffers the whole capture before the
// first frame is computed, so a 30 s track has 30 s of dead latency; the
// streamed path reads the radio in chunks, combines subcarriers per
// sample (ofdm.AverageSubcarriers), schedules each ISAR frame the moment its window
// closes (isar.Streamer) and emits frames in index order while the
// capture is still running. Every per-sample operation is shared with
// the batch path, so the streamed frames — and the Image and Trace the
// stream assembles at the end — are byte-identical to Track's output for
// every worker count and chunk size.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wivi/internal/isar"
	"wivi/internal/nulling"
	"wivi/internal/ofdm"
)

// StreamFrontEnd is a FrontEnd whose radio can deliver a capture in
// chunks as the samples arrive. internal/sim implements it natively;
// batch-only front ends are adapted by streamCapture. The method uses
// only basic types, so implementations satisfy it structurally without
// importing this package.
type StreamFrontEnd interface {
	FrontEnd

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
}

// EmitChunks slices an already-recorded capture (a batch Capture result,
// or a trace file's PerSub data) into consecutive chunks and feeds them
// to emit — the batch-compatibility adapter behind streamCapture, and
// the entry point for replaying recorded traces through the streaming
// chain.
func EmitChunks(perSub [][]complex128, chunk int, emit func([][]complex128) error) error {
	if chunk < 1 {
		return fmt.Errorf("core: chunk length %d", chunk)
	}
	active, err := ofdm.ActiveSubcarriers(perSub)
	if err != nil {
		return fmt.Errorf("core: replayed capture: %w", err)
	}
	total := len(active[0])
	for off := 0; off < total; off += chunk {
		end := off + chunk
		if end > total {
			end = total
		}
		part := make([][]complex128, len(perSub))
		for k, sub := range perSub {
			if len(sub) > 0 {
				part[k] = sub[off:end]
			}
		}
		if err := emit(part); err != nil {
			return err
		}
	}
	return nil
}

// streamCapture runs a chunked capture on fe, streaming natively when
// the front end supports it and falling back to capture-then-slice
// compatibility (identical samples, no latency benefit) otherwise.
func streamCapture(fe FrontEnd, p []complex128, boostDB, startT float64, total, chunk int, emit func([][]complex128) error) error {
	if sfe, ok := fe.(StreamFrontEnd); ok {
		return sfe.StreamCapture(p, boostDB, startT, total, chunk, emit)
	}
	perSub, err := fe.Capture(p, boostDB, startT, total)
	if err != nil {
		return err
	}
	return EmitChunks(perSub, chunk, emit)
}

// StreamOptions configures a streamed capture.
type StreamOptions struct {
	// ChunkSamples is the capture chunk granularity in samples; the
	// context is honored at chunk boundaries. 0 uses Config.StreamChunk
	// (default: the ISAR hop). The chunk size never affects the emitted
	// frames, only latency.
	ChunkSamples int
}

// Stream is an in-progress streamed tracking capture. Frames arrive via
// Next in index order while later windows are still filling; Result
// blocks until the capture completes and assembles the identical
// *isar.Image and *Trace a batch TrackCtx of the same span would have
// returned. Frames are buffered internally, so a slow (or absent)
// consumer never stalls the capture, and abandoning a Stream leaks
// nothing once its context is canceled.
type Stream struct {
	dev         *Device
	mode        Mode
	sampleT     float64
	totalFrames int
	thetas      []float64
	clock       Clock
	windowDur   time.Duration

	// arrival[i] is the clock instant frame i's window closed — when its
	// last sample was delivered by the front end (its real arrival time
	// under pacing, the synthesis time otherwise). Written by the capture
	// goroutine strictly before frame i is scheduled and read by the
	// collector strictly after frame i is emitted, so the frame channel's
	// happens-before edge orders every access.
	arrival []time.Time

	mu     sync.Mutex
	frames []isar.Frame
	lags   []time.Duration // lags[i]: emit instant minus arrival[i]
	cursor int
	wait   chan struct{} // replaced and closed on every state change
	done   bool
	err    error
	img    *isar.Image
	tr     *Trace

	doneCh chan struct{}
}

// TrackStream nulls (if needed), then captures duration seconds
// incrementally, emitting ISAR frames as their windows close.
func (d *Device) TrackStream(duration float64, opts StreamOptions) (*Stream, error) {
	return d.TrackStreamCtx(context.Background(), 0, duration, opts)
}

// TrackStreamCtx is the streaming form of TrackCtx. The capture holds
// the device lock for its whole span (one radio is one stateful
// instrument: interleaved captures would corrupt both sample streams),
// reads the front end chunk by chunk, and honors ctx at chunk
// granularity — a cancel aborts the capture at the next chunk boundary
// and the Stream finishes with ctx's error. Frame processing fans out
// over Config.FrameWorkers exactly like the batch path.
func (d *Device) TrackStreamCtx(ctx context.Context, startT, duration float64, opts StreamOptions) (*Stream, error) {
	return d.ObserveStream(ctx, TrackRequest{
		Mode:         ModeTracking,
		StartT:       startT,
		Duration:     duration,
		ChunkSamples: opts.ChunkSamples,
	})
}

// ObserveStream is the streaming form of Observe: the same per-request
// mode threading, with frames emitted while the capture runs. In
// gesture mode the decode stage needs the full angle-time image, so it
// runs at assembly time — Observation() returns the decoded message
// alongside the image, byte-identical to what a batch Observe of the
// same request would have produced.
func (d *Device) ObserveStream(ctx context.Context, req TrackRequest) (*Stream, error) {
	n, err := d.samples(req.Duration, true)
	if err != nil {
		return nil, err
	}
	startT := req.StartT
	opts := StreamOptions{ChunkSamples: req.ChunkSamples}
	chunk := opts.ChunkSamples
	if chunk <= 0 {
		chunk = d.cfg.StreamChunk
	}
	if chunk > n {
		chunk = n
	}
	s := &Stream{
		dev:         d,
		mode:        req.Mode,
		sampleT:     d.fe.SampleT(),
		totalFrames: len(d.proc.FrameSpecs(n)),
		thetas:      d.proc.Thetas(),
		clock:       d.cfg.Clock,
		windowDur:   sampleSpan(d.cfg.ISAR.Window, d.fe.SampleT()),
		wait:        make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	s.arrival = make([]time.Time, s.totalFrames)
	streamer := d.proc.NewStreamer(isar.StreamConfig{Workers: d.cfg.FrameWorkers})

	var (
		perSub     [][]complex128
		combined   []complex128
		nullRes    *nulling.Result
		captureErr error
	)
	// The capture loop: serialize on the radio, then read, combine and
	// hand samples to the streamer chunk by chunk.
	capture := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.nullRes == nil {
			if _, err := d.nullLocked(); err != nil {
				return fmt.Errorf("core: auto-null: %w", err)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		nullRes = d.nullRes
		perSub = make([][]complex128, d.fe.NumSubcarriers())
		for k := range perSub {
			perSub[k] = make([]complex128, 0, n)
		}
		combined = make([]complex128, 0, n)
		closed := 0 // frames whose windows have closed (arrival recorded)
		window, hop := d.cfg.ISAR.Window, d.cfg.ISAR.Hop
		emit := func(sub [][]complex128) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			for k := range perSub {
				perSub[k] = append(perSub[k], sub[k]...)
			}
			// Combine straight into the capture-length buffer: ready is the
			// chunk's view of it, owned by this stream (the front end may
			// reuse sub's buffers after emit returns).
			old := len(combined)
			var err error
			combined, err = ofdm.AverageSubcarriersAppend(combined, sub)
			if err != nil {
				return fmt.Errorf("core: combining subcarriers: %w", err)
			}
			ready := combined[old:]
			// Stamp the arrival of every window this chunk closed BEFORE
			// scheduling the frames: Append may process a frame inline, and
			// the collector reads arrival[i] as soon as frame i emerges.
			now := s.clock.Now()
			for closed < s.totalFrames && closed*hop+window <= len(combined) {
				s.arrival[closed] = now
				closed++
			}
			return streamer.Append(ctx, ready)
		}
		if err := streamCapture(d.fe, d.nullRes.P, d.cfg.Nulling.BoostDB, startT, n, chunk, emit); err != nil {
			return err
		}
		return ctx.Err()
	}
	go func() {
		captureErr = capture()
		streamer.CloseInput()
	}()
	// The collector buffers emitted frames (Next never blocks the
	// capture) and finalizes the stream when the frame channel closes.
	go func() {
		for fr := range streamer.Frames() {
			// Frame lag: the wall-clock cost of streaming — how long after
			// its window's last sample arrived this frame emerged. The
			// streamer emits in index order, so lags stays frame-aligned.
			lag := s.clock.Now().Sub(s.arrival[fr.Spec.Index])
			s.mu.Lock()
			s.frames = append(s.frames, fr)
			s.lags = append(s.lags, lag)
			s.signalLocked()
			s.mu.Unlock()
		}
		err := captureErr // CloseInput ordering makes this write visible
		if err == nil {
			err = streamer.Err()
		}
		s.mu.Lock()
		s.err = err
		if err == nil {
			s.img = d.proc.AssembleImage(s.frames)
			s.tr = &Trace{
				SampleT:  d.fe.SampleT(),
				Lambda:   d.fe.Wavelength(),
				PerSub:   perSub,
				Combined: combined,
				Nulling:  nullRes,
			}
		}
		s.done = true
		s.signalLocked()
		s.mu.Unlock()
		close(s.doneCh)
	}()
	return s, nil
}

func (s *Stream) signalLocked() {
	close(s.wait)
	s.wait = make(chan struct{})
}

// Next blocks until the next frame (in index order) is available and
// returns it; ok is false once the stream has ended, normally or not —
// check Err then. Completion is guaranteed: a canceled context aborts
// the capture at the next chunk boundary, so Next needs no context of
// its own.
func (s *Stream) Next() (fr isar.Frame, ok bool) {
	for {
		s.mu.Lock()
		if s.cursor < len(s.frames) {
			fr = s.frames[s.cursor]
			s.cursor++
			s.mu.Unlock()
			return fr, true
		}
		if s.done {
			s.mu.Unlock()
			return isar.Frame{}, false
		}
		wait := s.wait
		s.mu.Unlock()
		<-wait
	}
}

// Err returns the stream's terminal error: nil while running or after a
// clean finish, the cause otherwise.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Done returns a channel closed when the stream has fully finished
// (capture done and every frame emitted or abandoned on error).
func (s *Stream) Done() <-chan struct{} { return s.doneCh }

// Emitted returns how many frames have been emitted so far.
func (s *Stream) Emitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// TotalFrames returns the number of frames the full capture will emit.
func (s *Stream) TotalFrames() int { return s.totalFrames }

// LagAt returns the wall-clock lag of emitted frame i: the time between
// the arrival of its window's last sample at the front end and the
// frame's emission from the imaging chain. Under a paced front end this
// is the honest real-time latency figure; unpaced, arrival collapses to
// synthesis time and the lag measures pure processing delay. Frames not
// yet emitted report zero.
func (s *Stream) LagAt(i int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.lags) {
		return 0
	}
	return s.lags[i]
}

// Lags returns a snapshot of the per-frame lags recorded so far, in
// frame index order (see LagAt).
func (s *Stream) Lags() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.lags...)
}

// WindowDuration returns the wall-clock span of one analysis window —
// the natural SLO unit for frame lag: a chain whose p95 lag stays below
// one window is keeping up with the radio.
func (s *Stream) WindowDuration() time.Duration { return s.windowDur }

// Thetas returns the angle grid (degrees) the frame spectra are sampled
// on.
func (s *Stream) Thetas() []float64 { return s.thetas }

// SampleT returns the capture sample period in seconds.
func (s *Stream) SampleT() float64 { return s.sampleT }

// Mode returns the request mode the stream was started with.
func (s *Stream) Mode() Mode { return s.mode }

// Result blocks until the stream finishes and returns the assembled
// angle-time image and trace — byte-identical to what a batch TrackCtx
// of the same span would have returned — or the stream's error.
func (s *Stream) Result() (*isar.Image, *Trace, error) {
	<-s.doneCh
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, nil, s.err
	}
	return s.img, s.tr, nil
}

// Observation blocks until the stream finishes and returns the full
// mode-selected observation — identical to what a batch Observe of the
// same request would have returned, including the gesture decode when
// the stream was started in ModeGesture.
func (s *Stream) Observation() (*Observation, error) {
	img, tr, err := s.Result()
	if err != nil {
		return nil, err
	}
	return s.dev.finishObservation(s.mode, img, tr)
}
