package isar

import (
	"context"
	"reflect"
	"testing"
)

// streamFrames runs the Streamer over h in chunks and returns the frames
// it emitted, checking that they arrive in index order.
func streamFrames(t *testing.T, p *Processor, h []complex128, chunk, workers int, beamform bool) ([]Frame, error) {
	t.Helper()
	var frames []Frame
	s := p.NewStreamer(StreamConfig{Workers: workers, Beamform: beamform}, func(fr Frame) {
		frames = append(frames, fr)
	})
	var err error
	for off := 0; off < len(h) && err == nil; off += chunk {
		err = s.Append(context.Background(), h[off:min(off+chunk, len(h))])
	}
	if cerr := s.Close(); cerr != err {
		t.Fatalf("Close = %v, want Append's error %v", cerr, err)
	}
	if err != nil {
		return nil, err
	}
	for i, fr := range frames {
		if fr.Spec.Index != i {
			t.Fatalf("frame %d emitted at position %d: ordering broken", fr.Spec.Index, i)
		}
	}
	return frames, nil
}

// streamImage assembles streamFrames' frames into an image.
func streamImage(t *testing.T, p *Processor, h []complex128, chunk, workers int, beamform bool) (*Image, error) {
	t.Helper()
	frames, err := streamFrames(t, p, h, chunk, workers, beamform)
	if err != nil {
		return nil, err
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
// whose windows closed are emitted while later samples have not been
// appended yet, and every claimed frame is emitted by Close.
func TestStreamerEmitsBeforeInputCloses(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 256)
	var frames []Frame
	s := p.NewStreamer(StreamConfig{Workers: 1}, func(fr Frame) { frames = append(frames, fr) })
	// One window exactly: with Workers 1 the frame runs inline, so frame 0
	// is out by the time Append returns, with no further input.
	if err := s.Append(context.Background(), h[:cfg.Window]); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Spec.Index != 0 {
		t.Fatalf("after one window: emitted %d frames, want frame 0 alone", len(frames))
	}
	if err := s.Append(context.Background(), h[cfg.Window:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if want := len(p.FrameSpecs(256)); len(frames) != want {
		t.Fatalf("emitted %d frames, want %d", len(frames), want)
	}
	if s.next != len(frames) {
		t.Fatalf("claimed %d != emitted %d", s.next, len(frames))
	}
}

func TestStreamerShortCapture(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	s := p.NewStreamer(StreamConfig{}, func(Frame) { emitted++ })
	if err := s.Append(context.Background(), goldenChannel(cfg, cfg.Window-1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if emitted != 0 {
		t.Fatal("short capture emitted a frame")
	}
}

func TestStreamerCanceled(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewStreamer(StreamConfig{Workers: 4}, func(Frame) {})
	ctx, cancel := context.WithCancel(context.Background())
	h := goldenChannel(cfg, 256)
	if err := s.Append(ctx, h[:128]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Append(ctx, h[128:]); err != context.Canceled {
		t.Fatalf("Append after cancel = %v, want context.Canceled", err)
	}
	if err := s.Close(); err != context.Canceled {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
}

// TestStreamerBoundedBuffer is the unbounded-growth regression test: a
// long synthetic stream must retain O(Window + chunk) samples, never the
// capture history. Before the fix, the Streamer's sample buffer grew
// linearly with the stream (internal/isar/stream.go kept every appended
// sample).
func TestStreamerBoundedBuffer(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const total = 50000
	chunk := cfg.Hop + 3 // deliberately misaligned with the hop
	h := goldenChannel(cfg, total)
	frames := 0
	s := p.NewStreamer(StreamConfig{Workers: 2}, func(Frame) { frames++ })
	bound := cfg.Window + chunk
	for off := 0; off < total; off += chunk {
		end := min(off+chunk, total)
		if err := s.Append(context.Background(), h[off:end]); err != nil {
			t.Fatal(err)
		}
		// Only Append, on this goroutine, writes s.h.
		if r := len(s.h); r > bound {
			t.Fatalf("after %d samples: retained %d > bound %d (Window+chunk)", end, r, bound)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if want := len(p.FrameSpecs(total)); frames != want {
		t.Fatalf("trimmed stream emitted %d frames, want %d", frames, want)
	}
}

// TestStreamerSteadyStateAllocs gates the allocation-free hot path: once
// the pools are warm, appending one hop of samples (= one frame,
// processed inline) allocates only the emitted Frame's Power and
// Bartlett slices — versus ~340 per frame before the kernel pooled its
// scratch.
func TestStreamerSteadyStateAllocs(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const warmFrames = 64
	h := goldenChannel(cfg, cfg.Window+10000*cfg.Hop)
	emitted := 0
	s := p.NewStreamer(StreamConfig{}, func(Frame) { emitted++ }) // inline: allocs attribute deterministically
	off := 0
	// feed appends n samples, which must close exactly one window: the
	// frame runs inline and is emitted before Append returns.
	feed := func(n int) {
		before := emitted
		if err := s.Append(context.Background(), h[off:off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		if emitted != before+1 {
			t.Fatalf("append of %d samples emitted %d frames, want 1", n, emitted-before)
		}
	}
	// Warm the pools and the sample buffer one frame at a time.
	feed(cfg.Window)
	for i := 0; i < warmFrames; i++ {
		feed(cfg.Hop)
	}
	avg := testing.AllocsPerRun(200, func() { feed(cfg.Hop) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 2 irreducible (Power, Bartlett), measured 2.00; the slack is for
	// the race detector, whose sync.Pool drops a share of Puts, so a run
	// under -race also refills the frame scratch now and then. The
	// unpooled chain measured ~340 allocs/frame.
	if avg > 8 {
		t.Fatalf("steady-state stream allocates %.1f per frame, want <= 8", avg)
	}
}
