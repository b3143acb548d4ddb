package isar

// Streaming form of the stage decomposition in frame.go: instead of
// slicing a complete capture into FrameSpecs and fanning them out, a
// Streamer consumes the channel stream incrementally and schedules each
// frame the moment its window closes, while later windows are still
// filling. Each frame runs the same stateless kernel the batch chain runs
// (processFrame) on a copy of its own window, so the frame sequence (and
// any image assembled from it) is bit-identical to the batch chain for
// every worker count and every input chunking.
//
// The sample buffer is bounded: each scheduled frame takes its own copy
// of its window at dispatch, so Append can trim every sample older than
// the earliest unscheduled window. A stream that runs for a week retains
// O(Window + chunk) samples, not the whole capture history.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// StreamConfig parameterizes a Streamer.
type StreamConfig struct {
	// Workers bounds the per-stream frame fan-out, mirroring the workers
	// argument of ComputeImageCtx: the appending goroutine always makes
	// progress, and up to Workers-1 extra goroutines are borrowed from the
	// process-wide frameTokens budget. Values <= 1 process every frame
	// inline on the Append call. The worker count never affects the
	// emitted frames, only the scheduling.
	Workers int
	// Beamform selects the plain Eq. 5.1 beamformer stage instead of
	// smoothed MUSIC, mirroring ComputeBeamformImageCtx.
	Beamform bool
}

// Streamer incrementally turns a channel sample stream into ordered
// Frames. Usage:
//
//	s := p.NewStreamer(StreamConfig{Workers: 4})
//	go consume(s.Frames())          // receives frames in index order
//	for each chunk {
//	    if err := s.Append(ctx, chunk); err != nil { break }
//	}
//	s.CloseInput()                  // Frames() closes once all are out
//	err := s.Err()                  // first frame error, if any
//
// Append must be called from a single goroutine (the capture loop); the
// Frames channel must be drained, or the pipeline stalls by design
// (backpressure toward the producer).
type Streamer struct {
	p     *Processor
	music bool

	// Producer-side state, touched only by the Append goroutine. h holds
	// the not-yet-consumed tail of the sample stream; base is the
	// absolute sample index of h[0] (it grows as the consumed prefix is
	// trimmed).
	h    []complex128
	base int

	// next is the next frame index to schedule. Written only by the
	// Append goroutine; atomic so Scheduled is safe from any goroutine.
	next atomic.Int64

	// extra holds local slots for borrowed worker goroutines.
	extra chan struct{}
	wg    sync.WaitGroup

	results chan Frame
	out     chan Frame

	errOnce sync.Once
	errMu   sync.Mutex
	err     error
	failed  chan struct{}
}

// NewStreamer builds a Streamer over the processor's window geometry.
func (p *Processor) NewStreamer(cfg StreamConfig) *Streamer {
	extra := cfg.Workers - 1
	if extra < 0 {
		extra = 0
	}
	s := &Streamer{
		p:       p,
		music:   !cfg.Beamform,
		extra:   make(chan struct{}, extra),
		results: make(chan Frame, 1),
		out:     make(chan Frame),
		failed:  make(chan struct{}),
	}
	go s.collect()
	return s
}

// collect reorders completed frames by index and emits them in order.
func (s *Streamer) collect() {
	pending := make(map[int]Frame)
	emit := 0
	for fr := range s.results {
		pending[fr.Spec.Index] = fr
		for {
			next, ok := pending[emit]
			if !ok {
				break
			}
			delete(pending, emit)
			s.out <- next
			emit++
		}
	}
	close(s.out)
}

// Frames returns the ordered frame channel. It closes after CloseInput
// once every scheduled frame has been emitted, or early after a frame
// error (check Err).
func (s *Streamer) Frames() <-chan Frame { return s.out }

// Err returns the first frame-processing error, if any.
func (s *Streamer) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *Streamer) fail(err error) {
	s.errOnce.Do(func() {
		s.errMu.Lock()
		s.err = err
		s.errMu.Unlock()
		close(s.failed)
	})
}

// Append extends the channel stream with samples and schedules every
// frame whose window just closed. It returns the stream's first error
// (frame failure or context cancellation); after an error the stream is
// dead and CloseInput should follow.
func (s *Streamer) Append(ctx context.Context, samples []complex128) error {
	if err := ctx.Err(); err != nil {
		s.fail(err)
		return err
	}
	if err := s.Err(); err != nil {
		return err
	}
	w := s.p.cfg.Window
	hop := s.p.cfg.Hop
	// Trim the consumed prefix before growing: samples before the
	// earliest unscheduled window (frame `next`, absolute start
	// next*hop) can never be read again — every in-flight frame works on
	// its own window copy — so the retained buffer stays O(Window +
	// chunk) for any stream length. The compaction reuses h's backing
	// array; no worker reads h.
	if keep := int(s.next.Load())*hop - s.base; keep > 0 {
		if keep > len(s.h) {
			keep = len(s.h)
		}
		n := copy(s.h, s.h[keep:])
		s.h = s.h[:n]
		s.base += keep
	}
	s.h = append(s.h, samples...)
	for {
		next := int(s.next.Load())
		start := next * hop
		if start+w > s.base+len(s.h) {
			break
		}
		s.next.Store(int64(next + 1))
		s.dispatch(FrameSpec{Index: next, Start: start})
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Scheduled returns how many frames have been scheduled so far. Safe to
// call from any goroutine.
func (s *Streamer) Scheduled() int { return int(s.next.Load()) }

// Retained returns the current length of the internal sample buffer —
// exposed so tests can assert the bounded-memory contract.
func (s *Streamer) Retained() int { return len(s.h) }

// dispatch copies one frame's window into pooled scratch and runs the
// frame kernel on it — on a borrowed goroutine when both a local slot and
// a global frame token are free, else inline — the same always-progress
// policy as computeFrames. The window copy is what lets Append trim s.h
// while the frame is still in flight.
func (s *Streamer) dispatch(spec FrameSpec) {
	w := s.p.cfg.Window
	rel := spec.Start - s.base
	sc := s.p.getScratch()
	copy(sc.win, s.h[rel:rel+w])
	select {
	case s.extra <- struct{}{}:
		select {
		case frameTokens <- struct{}{}:
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-frameTokens; <-s.extra }()
				s.runFrame(sc, spec)
			}()
			return
		default:
			<-s.extra
		}
	default:
	}
	s.runFrame(sc, spec)
}

// runFrame runs the frame kernel on a dispatched frame's window copy and
// returns the scratch to the processor's pool.
func (s *Streamer) runFrame(sc *frameScratch, spec FrameSpec) {
	fr, err := s.p.processFrame(sc.win, spec, s.music, sc)
	s.p.putScratch(sc)
	if err != nil {
		s.fail(fmt.Errorf("isar: streaming frame %d: %w", spec.Index, err))
		return
	}
	select {
	case s.results <- fr:
	case <-s.failed:
		// A sibling frame failed; the collector may already be gone.
	}
}

// CloseInput marks the end of the sample stream. Once in-flight frames
// finish, the results funnel closes and Frames drains then closes.
// Append must not be called afterwards.
func (s *Streamer) CloseInput() {
	go func() {
		s.wg.Wait()
		close(s.results)
	}()
}
