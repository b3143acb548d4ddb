package core

// Streaming tracking: the capture→combine→frame→image chain run
// incrementally. A batch track reads the whole capture as one chunk of
// the capture loop before the first frame is computed, so a 30 s track
// has 30 s of dead latency; a stream runs the same loop one ISAR hop per
// chunk, schedules each frame the moment its window closes
// (isar.Streamer) and emits frames in index order while the capture is
// still running. Every per-sample operation is shared with the batch
// path, so the streamed frames — and the Image and combined Trace the
// stream assembles at the end — are byte-identical to Track's output for
// every worker count and chunk size.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wivi/internal/isar"
	"wivi/internal/ofdm"
)

// EmitChunks slices an already-recorded capture (a trace file's PerSub
// data) into consecutive chunks and feeds them to emit: the entry point
// for replaying recorded traces through the streaming chain.
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
	totalFrames int
	thetas      []float64
	windowDur   time.Duration

	// arrival[i] is the clock instant frame i's window closed — when its
	// last sample was delivered by the front end (its real arrival time
	// under pacing, the synthesis time otherwise). Written by the capture
	// goroutine strictly before frame i is claimed and read by the
	// streamer's emit strictly after, both ordered by the streamer's
	// mutex.
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

// ObserveStream is the streaming form of Observe: the same per-request
// mode threading, with frames emitted while the capture runs. The
// capture loop reads one ISAR hop per chunk (one potential new frame per
// chunk) and honors ctx at chunk granularity — a cancel aborts the
// capture at the next chunk boundary, or inside a paced chunk's wait,
// and the Stream finishes with ctx's error. Frame processing fans out
// over Config.FrameWorkers exactly like the batch path. In gesture mode
// the decode stage needs the full angle-time image, so it runs at
// assembly time — Observation() returns the decoded message alongside
// the image, byte-identical to what a batch Observe of the same request
// would have produced.
func (d *Device) ObserveStream(ctx context.Context, req TrackRequest) (*Stream, error) {
	return d.observeStream(ctx, req, d.cfg.ISAR.Hop)
}

// observeStream is ObserveStream reading chunk samples per chunk. The
// chunk size never affects the emitted frames, only latency.
func (d *Device) observeStream(ctx context.Context, req TrackRequest, chunk int) (*Stream, error) {
	n, err := d.samples(req.Duration, true)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		dev:         d,
		mode:        req.Mode,
		totalFrames: len(d.proc.FrameSpecs(n)),
		thetas:      d.proc.Thetas(),
		windowDur:   sampleSpan(d.cfg.ISAR.Window, d.fe.SampleT()),
		wait:        make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	s.arrival = make([]time.Time, s.totalFrames)
	// emit buffers each frame (Next never blocks the capture) with its
	// lag: how long after its window's last sample arrived the frame
	// emerged. The streamer emits in index order, so lags stays
	// frame-aligned.
	streamer := d.proc.NewStreamer(isar.StreamConfig{Workers: d.cfg.FrameWorkers}, func(fr isar.Frame) {
		lag := d.clock.Now().Sub(s.arrival[fr.Spec.Index])
		s.mu.Lock()
		s.frames = append(s.frames, fr)
		s.lags = append(s.lags, lag)
		s.signalLocked()
		s.mu.Unlock()
	})
	window, hop := d.cfg.ISAR.Window, d.cfg.ISAR.Hop
	read, closed := 0, 0 // samples combined; frames whose windows have closed
	each := func(_ [][]complex128, ready []complex128) error {
		// Stamp the arrival of every window this chunk closed BEFORE
		// appending: Append may process a frame inline, and the
		// streamer's emit reads arrival[i] as soon as frame i emerges.
		read += len(ready)
		now := d.clock.Now()
		for closed < s.totalFrames && closed*hop+window <= read {
			s.arrival[closed] = now
			closed++
		}
		return streamer.Append(ctx, ready)
	}
	// The capture goroutine finalizes the stream once the streamer has
	// emitted its last frame.
	go func() {
		tr, err := d.capture(ctx, 0, n, chunk, each)
		if cerr := streamer.Close(); err == nil {
			err = cerr
		}
		s.mu.Lock()
		s.err = err
		if err == nil {
			s.img = d.proc.AssembleImage(s.frames)
			s.tr = tr
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
