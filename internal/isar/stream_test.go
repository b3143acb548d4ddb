package isar

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// streamImage runs the Streamer over h in chunks and assembles the
// emitted frames into an image.
func streamImage(t *testing.T, p *Processor, h []complex128, chunk, workers int, beamform bool) (*Image, error) {
	t.Helper()
	s := p.NewStreamer(StreamConfig{Workers: workers, Beamform: beamform})
	var frames []Frame
	done := make(chan struct{})
	go func() {
		defer close(done)
		for fr := range s.Frames() {
			frames = append(frames, fr)
		}
	}()
	var appendErr error
	for off := 0; off < len(h) && appendErr == nil; off += chunk {
		end := off + chunk
		if end > len(h) {
			end = len(h)
		}
		appendErr = s.Append(context.Background(), h[off:end])
	}
	s.CloseInput()
	<-done
	if appendErr != nil {
		return nil, appendErr
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	for i, fr := range frames {
		if fr.Spec.Index != i {
			t.Fatalf("frame %d emitted at position %d: ordering broken", fr.Spec.Index, i)
		}
	}
	return p.AssembleImage(frames), nil
}

// TestStreamerMatchesBatch is the core streaming invariant: whatever the
// chunk size and worker count, the streamed frames assemble into an
// image byte-identical to the batch chain's.
func TestStreamerMatchesBatch(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 512)
	want, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 16, 17, 64, 512} {
		for _, workers := range []int{1, 4} {
			got, err := streamImage(t, p, h, chunk, workers, false)
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d workers=%d: streamed image differs from batch", chunk, workers)
			}
		}
	}
	// The beamform stage streams through the same path.
	wantBF, err := p.ComputeBeamformImage(h)
	if err != nil {
		t.Fatal(err)
	}
	gotBF, err := streamImage(t, p, h, 32, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBF, wantBF) {
		t.Fatal("streamed beamform image differs from batch")
	}
}

// TestStreamerEmitsBeforeInputCloses verifies actual streaming: frames
// whose windows closed are observable while later samples have not been
// appended yet.
func TestStreamerEmitsBeforeInputCloses(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 256)
	s := p.NewStreamer(StreamConfig{Workers: 1})
	// One window exactly: frame 0 must arrive with no further input.
	if err := s.Append(context.Background(), h[:cfg.Window]); err != nil {
		t.Fatal(err)
	}
	fr, open := <-s.Frames()
	if !open {
		t.Fatal("frame channel closed early")
	}
	if fr.Spec.Index != 0 {
		t.Fatalf("first frame index %d", fr.Spec.Index)
	}
	// Drain concurrently from here on: with Workers 1 the frames process
	// inline on Append, and an undrained Frames channel backpressures the
	// producer by design.
	counted := make(chan int)
	go func() {
		count := 1
		for range s.Frames() {
			count++
		}
		counted <- count
	}()
	if err := s.Append(context.Background(), h[cfg.Window:]); err != nil {
		t.Fatal(err)
	}
	s.CloseInput()
	count := <-counted
	if want := len(p.FrameSpecs(256)); count != want {
		t.Fatalf("emitted %d frames, want %d", count, want)
	}
	if s.Scheduled() != count {
		t.Fatalf("scheduled %d != emitted %d", s.Scheduled(), count)
	}
}

func TestStreamerShortCapture(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewStreamer(StreamConfig{})
	if err := s.Append(context.Background(), goldenChannel(cfg, cfg.Window-1)); err != nil {
		t.Fatal(err)
	}
	s.CloseInput()
	if _, open := <-s.Frames(); open {
		t.Fatal("short capture emitted a frame")
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
}

func TestStreamerCanceled(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewStreamer(StreamConfig{Workers: 4})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range s.Frames() {
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	h := goldenChannel(cfg, 256)
	if err := s.Append(ctx, h[:128]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Append(ctx, h[128:]); err != context.Canceled {
		t.Fatalf("Append after cancel = %v, want context.Canceled", err)
	}
	s.CloseInput()
	<-drained
	if s.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
}

// TestStreamerBoundedBuffer is the unbounded-growth regression test: a
// long synthetic stream must retain O(Window + chunk) samples, never the
// capture history. Before the fix, Retained() grew linearly with the
// stream (internal/isar/stream.go kept every appended sample).
func TestStreamerBoundedBuffer(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const total = 50000
	chunk := cfg.Hop + 3 // deliberately misaligned with the hop
	h := goldenChannel(cfg, total)
	s := p.NewStreamer(StreamConfig{Workers: 2})
	drained := make(chan int)
	go func() {
		n := 0
		for range s.Frames() {
			n++
		}
		drained <- n
	}()
	bound := cfg.Window + chunk
	for off := 0; off < total; off += chunk {
		end := off + chunk
		if end > total {
			end = total
		}
		if err := s.Append(context.Background(), h[off:end]); err != nil {
			t.Fatal(err)
		}
		if r := s.Retained(); r > bound {
			t.Fatalf("after %d samples: retained %d > bound %d (Window+chunk)", end, r, bound)
		}
	}
	s.CloseInput()
	frames := <-drained
	if want := len(p.FrameSpecs(total)); frames != want {
		t.Fatalf("trimmed stream emitted %d frames, want %d", frames, want)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestScheduledConcurrent exercises the Scheduled data race fixed in
// this revision: a monitor goroutine polls Scheduled while the producer
// appends. Run under -race this fails on the old unsynchronized read of
// s.next; it also checks monotonicity of the observed counts.
func TestScheduledConcurrent(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 2048)
	s := p.NewStreamer(StreamConfig{Workers: 2})
	go func() {
		for range s.Frames() {
		}
	}()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := s.Scheduled()
			if n < last {
				t.Errorf("Scheduled went backwards: %d after %d", n, last)
				return
			}
			last = n
		}
	}()
	for off := 0; off < len(h); off += cfg.Hop {
		end := off + cfg.Hop
		if end > len(h) {
			end = len(h)
		}
		if err := s.Append(context.Background(), h[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	s.CloseInput()
	if want := len(p.FrameSpecs(len(h))); s.Scheduled() != want {
		t.Fatalf("scheduled %d frames, want %d", s.Scheduled(), want)
	}
}

// TestStreamerSteadyStateAllocs gates the allocation-free hot path: once
// the pools are warm, appending one hop of samples (= one frame,
// processed inline) allocates only the emitted Frame's Power and
// Bartlett slices plus channel/collector noise — single digits, versus
// ~340 per frame before the kernel pooled its scratch.
func TestStreamerSteadyStateAllocs(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const warmFrames = 64
	h := goldenChannel(cfg, cfg.Window+10000*cfg.Hop)
	s := p.NewStreamer(StreamConfig{}) // inline: allocs attribute deterministically
	frames := make(chan Frame, 4)
	go func() {
		for fr := range s.Frames() {
			frames <- fr
		}
		close(frames)
	}()
	off := 0
	// feed appends exactly one hop — which closes exactly one window once
	// primed — and consumes the one frame it emits, keeping the pipeline
	// in lockstep.
	feed := func(n, emitted int) {
		if err := s.Append(context.Background(), h[off:off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		for i := 0; i < emitted; i++ {
			<-frames
		}
	}
	// Warm pools, channels and the reorder map one frame at a time.
	feed(cfg.Window, 1)
	for i := 0; i < warmFrames; i++ {
		feed(cfg.Hop, 1)
	}
	avg := testing.AllocsPerRun(200, func() { feed(cfg.Hop, 1) })
	s.CloseInput()
	for range frames {
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// 2 irreducible (Power, Bartlett) + slack for channel-send and map
	// internals. The unpooled chain measured ~340 allocs/frame.
	if avg > 8 {
		t.Fatalf("steady-state stream allocates %.1f per frame, want <= 8", avg)
	}
}
