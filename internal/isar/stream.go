package isar

// The frame scheduler. A Streamer consumes the channel stream
// incrementally and runs the frame kernel (processFrame) on each window
// the moment it closes, while later windows are still filling; a batch
// image (ComputeImageCtx) is the same Streamer fed the whole capture in
// one Append. Each frame runs on its own copy of its window and reaches the
// emit callback in index order, so the frame sequence (and any image
// assembled from it) is bit-identical for every worker count and every
// input chunking, batch or stream.
//
// Scheduling is claim, then hand off. Append claims each closed window in
// turn under the Streamer's mutex (checking ctx, copying the window into
// pooled scratch and advancing next), then hands it to a borrowed
// goroutine if a local worker slot and a process-wide frameTokens token
// are both free, or else runs it inline. A goroutine that finishes a
// frame claims the next closed window before it stops, so a capture
// appended at once costs one goroutine per slot, not one per frame, while
// a stream chunk that closes one window still hands it off and returns.
//
// The sample buffer is bounded and holds only what no claim has read
// yet. Append claims windows straight from the chunk it was handed (a
// window that began in an earlier chunk takes its head from the buffer),
// and every closed window is claimed, and so copied, before Append
// returns. So Append keeps only the samples from the earliest unclaimed
// window on, which has not closed: fewer than Window of them, however
// long the stream. A batch image, one Append of the whole capture, never
// copies the capture.

import (
	"context"
	"runtime"
	"sync"
)

// frameTokens caps the process-wide number of *extra* frame workers so
// nested parallelism (a scene-level engine fanning out captures, each
// capture fanning out frames) cannot oversubscribe the machine: every
// Streamer always progresses on its appending goroutine, and borrows
// additional workers only while global CPU budget remains. The worker
// count never affects the output — frames are emitted by index — so the
// cap is purely a scheduling concern.
var frameTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// StreamConfig parameterizes a Streamer.
type StreamConfig struct {
	// Workers bounds the frame fan-out, mirroring the workers argument of
	// ComputeImageCtx: the appending goroutine always makes progress, and
	// up to Workers-1 extra goroutines are borrowed from the process-wide
	// frameTokens budget. Values <= 1 process every frame inline on the
	// Append call. The worker count never affects the emitted frames,
	// only the scheduling.
	Workers int
}

// Streamer incrementally turns a channel sample stream into Frames and
// hands them to its emit callback in index order. Usage:
//
//	s := p.NewStreamer(StreamConfig{Workers: 4}, func(fr Frame) { ... })
//	for each chunk {
//	    if err := s.Append(ctx, chunk); err != nil { break }
//	}
//	err := s.Close() // waits for in-flight frames; first error, if any
//
// Append must be called from a single goroutine (the capture loop). emit
// runs under the Streamer's mutex, on whichever goroutine completed the
// frame, so it must not block or call back into the Streamer.
type Streamer struct {
	p    *Processor
	emit func(Frame)

	// extra holds local slots for borrowed worker goroutines; nil when
	// Workers <= 1, which makes every frame run inline.
	extra chan struct{}
	wg    sync.WaitGroup

	mu sync.Mutex
	// h holds the unclaimed tail of the samples earlier Appends delivered,
	// and base is the absolute sample index of h[0]. in is the chunk the
	// running Append was handed, which continues h; it is nil between
	// Appends.
	h    []complex128
	base int
	in   []complex128
	// next is the next frame index to claim, emitted the next to emit.
	next, emitted int
	// pending holds frames completed ahead of emitted, by index.
	pending  map[int]Frame
	firstErr error
}

// NewStreamer builds a Streamer over the processor's window geometry that
// hands each frame to emit, in index order.
func (p *Processor) NewStreamer(cfg StreamConfig, emit func(Frame)) *Streamer {
	s := &Streamer{p: p, emit: emit}
	if cfg.Workers > 1 {
		s.extra = make(chan struct{}, cfg.Workers-1)
	}
	return s
}

// Append extends the channel stream with samples and claims every window
// they closed, running each frame inline or on a borrowed goroutine. It
// returns the stream's first error (a frame failure, or ctx's error at a
// claim); after an error the stream is dead and Close should follow.
func (s *Streamer) Append(ctx context.Context, samples []complex128) error {
	s.mu.Lock()
	s.in = samples
	s.mu.Unlock()

	sc := s.p.getScratch()
	for {
		spec, ok := s.claim(ctx, sc)
		if !ok {
			break
		}
		if !s.borrow() {
			s.run(sc, spec)
			continue
		}
		s.wg.Add(1)
		go s.work(ctx, sc, spec)
		sc = s.p.getScratch()
	}
	s.p.putScratch(sc)
	s.keepUnclaimed()
	return s.err()
}

// Close marks the end of the sample stream: it waits for every in-flight
// frame and returns the stream's first error. Append must not be called
// afterwards.
func (s *Streamer) Close() error {
	s.wg.Wait()
	return s.err()
}

func (s *Streamer) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// keepUnclaimed ends an Append: it keeps the samples from the earliest
// unclaimed window (frame next, absolute start next*Hop) to the end of
// the chunk, and drops the rest, which no claim can read again because
// every claimed frame works on its own window copy. By now every closed
// window has been claimed, or the stream has failed and claims nothing
// more, so no claim reads the chunk after Append returns. The compaction
// reuses h's backing array.
func (s *Streamer) keepUnclaimed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.base + len(s.h) + len(s.in)
	from := min(s.next*s.p.cfg.Hop, end)
	if off := from - s.base; off < len(s.h) {
		s.h = append(s.h[:copy(s.h, s.h[off:])], s.in...)
	} else {
		s.h = append(s.h[:0], s.in[off-len(s.h):]...)
	}
	s.base, s.in = from, nil
}

// claim takes the next closed window for sc: under the mutex it checks
// ctx, copies the window into sc.win from the kept samples and the chunk
// that continues them, and advances next. ok is false when no unclaimed
// window has closed or the stream has failed; a canceled ctx fails the
// stream.
func (s *Streamer) claim(ctx context.Context, sc *frameScratch) (spec FrameSpec, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.next * s.p.cfg.Hop
	if s.firstErr != nil || start+s.p.cfg.Window > s.base+len(s.h)+len(s.in) {
		return FrameSpec{}, false
	}
	if err := ctx.Err(); err != nil {
		s.firstErr = err
		return FrameSpec{}, false
	}
	if off := start - s.base; off < len(s.h) {
		copy(sc.win[copy(sc.win, s.h[off:]):], s.in)
	} else {
		copy(sc.win, s.in[off-len(s.h):])
	}
	spec = FrameSpec{Index: s.next, Start: start}
	s.next++
	return spec, true
}

// borrow takes a local worker slot and a process-wide frame token, both
// or neither.
func (s *Streamer) borrow() bool {
	select {
	case s.extra <- struct{}{}:
	default:
		return false
	}
	select {
	case frameTokens <- struct{}{}:
		return true
	default:
		<-s.extra
		return false
	}
}

// work is a borrowed goroutine: it runs the frame handed to it, then
// every window it can claim, and returns its scratch, token and slot.
func (s *Streamer) work(ctx context.Context, sc *frameScratch, spec FrameSpec) {
	for ok := true; ok; spec, ok = s.claim(ctx, sc) {
		s.run(sc, spec)
	}
	s.p.putScratch(sc)
	<-frameTokens
	<-s.extra
	s.wg.Done()
}

// run runs the frame kernel on a claimed window, then files the frame and
// emits every frame that is now next in index order. Nothing is emitted
// after the stream has failed.
func (s *Streamer) run(sc *frameScratch, spec FrameSpec) {
	fr, err := s.p.processFrame(sc.win, spec, sc)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.firstErr != nil:
		return
	case err != nil:
		s.firstErr = err
		return
	case spec.Index != s.emitted:
		if s.pending == nil {
			s.pending = make(map[int]Frame)
		}
		s.pending[spec.Index] = fr
		return
	}
	for ok := true; ok; fr, ok = s.pending[s.emitted] {
		delete(s.pending, s.emitted)
		s.emit(fr)
		s.emitted++
	}
}
