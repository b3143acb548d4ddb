package wivi

// Tests for the Engine service API: lifecycle (drain semantics, typed
// rejection after Close), Stats consistency under load, and — the
// regression the api redesign exists for — interleaved track/gesture
// requests on a single device, which raced on Device.SetMode before
// mode became per-request data. Run with -race (make check does).

import (
	"context"
	"errors"
	"sync"
	"testing"

	"wivi/internal/core"
)

// newGestureDevice builds the known-good two-bit ("01") gesture scene
// and its device; fresh builds with the same seed are byte-identical.
func newGestureDevice(t testing.TB) (*Device, float64) {
	t.Helper()
	sc := NewScene(SceneOptions{Seed: 21, RoomWidth: 11, RoomDepth: 8})
	dur, err := sc.AddGestureSender(GestureMessage{Bits: []Bit{Bit0, Bit1}, Distance: 3})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(sc, DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return dev, dur
}

// TestEngineMixedModesOneDevice is the SetMode-race regression test:
// interleaved track and gesture submissions against a single device
// must be safe (run with -race) and every request must be processed
// under exactly its own mode — tracking results carry no message,
// gesture results do.
func TestEngineMixedModesOneDevice(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 4, QueueDepth: 32})
	defer eng.Close()
	dev, _ := newGestureDevice(t)
	ctx := context.Background()

	const perMode = 4
	var wg sync.WaitGroup
	errc := make(chan error, 3*perMode)
	submit := func(req Request, check func(*Result) error) {
		defer wg.Done()
		h, err := eng.Submit(ctx, req)
		if err != nil {
			errc <- err
			return
		}
		res, err := h.Wait(ctx)
		if err != nil {
			errc <- err
			return
		}
		errc <- check(res)
	}
	for i := 0; i < perMode; i++ {
		wg.Add(3)
		go submit(Request{Device: dev, Duration: trackDuration}, func(r *Result) error {
			if r.Mode != Track || r.Message != nil || r.Tracking == nil {
				return errors.New("track request processed under wrong mode")
			}
			return nil
		})
		go submit(Request{Device: dev, Duration: trackDuration, Mode: Gesture}, func(r *Result) error {
			if r.Mode != Gesture || r.Message == nil || r.Tracking == nil {
				return errors.New("gesture request processed under wrong mode")
			}
			return nil
		})
		go submit(Request{Device: dev, Duration: trackDuration, Stream: true}, func(r *Result) error {
			if r.Mode != Track || r.Message != nil || r.Tracking == nil {
				return errors.New("stream request processed under wrong mode")
			}
			return nil
		})
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineMixedSequenceMatchesSequential pins the engine against the
// sequential path for a mixed workload: a 1-worker engine executes
// submissions in FIFO order, so a track/gesture interleaving on one
// device must be byte-identical to the same sequence of direct core
// calls on a fresh identical device (captures consume the radio's
// stateful noise stream, so order is part of the contract).
func TestEngineMixedSequenceMatchesSequential(t *testing.T) {
	modes := []Mode{Track, Gesture, Track, Gesture}

	// Sequential reference: direct core calls, no engine.
	ref, dur := newGestureDevice(t)
	type step struct {
		img  *TrackingResult
		bits string
	}
	want := make([]step, len(modes))
	for i, m := range modes {
		obs, err := ref.pipeline.Observe(context.Background(), core.TrackRequest{
			Mode: m.core(), Duration: dur,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = step{img: &TrackingResult{img: obs.Image, dev: ref}}
		if obs.Gestures != nil {
			want[i].bits = decodedMessage(obs.Gestures).String()
		}
	}

	// Engine path: same device build, same request sequence, pipelined
	// through a single worker (FIFO execution order).
	eng := NewEngine(EngineOptions{Workers: 1, QueueDepth: len(modes)})
	defer eng.Close()
	dev, _ := newGestureDevice(t)
	handles := make([]*Handle, len(modes))
	for i, m := range modes {
		h, err := eng.Submit(context.Background(), Request{Device: dev, Duration: dur, Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !res.Tracking.Equal(want[i].img) {
			t.Fatalf("request %d (%v): engine image differs from sequential path", i, modes[i])
		}
		gotBits := ""
		if res.Message != nil {
			gotBits = res.Message.String()
		}
		if gotBits != want[i].bits {
			t.Fatalf("request %d (%v): decoded %q, sequential path %q", i, modes[i], gotBits, want[i].bits)
		}
	}
	if want[1].bits != "01" {
		t.Fatalf("reference gesture decode %q, want 01", want[1].bits)
	}
}

// TestEngineGestureStream exercises the mixed-workload corner the
// unified Request enables: a streaming gesture request emits live
// frames AND decodes the message at assembly, matching the batch
// gesture path byte for byte.
func TestEngineGestureStream(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	dev, dur := newGestureDevice(t)
	bh, err := eng.Submit(ctx, Request{Device: dev, Duration: dur, Mode: Gesture})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := bh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	sdev, _ := newGestureDevice(t)
	sh, err := eng.Submit(ctx, Request{Device: sdev, Duration: dur, Mode: Gesture, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sh.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for range ts.Frames() {
		frames++
	}
	res, err := sh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 || frames != ts.TotalFrames() {
		t.Fatalf("streamed %d frames, want %d", frames, ts.TotalFrames())
	}
	if res.Message == nil || res.Message.String() != batch.Message.String() {
		t.Fatalf("streamed gesture decode %v, batch %q", res.Message, batch.Message.String())
	}
	if !res.Tracking.Equal(batch.Tracking) {
		t.Fatal("streamed gesture image differs from batch")
	}
	if res.Message.String() != "01" {
		t.Fatalf("decoded %q, want 01", res.Message.String())
	}
}

// TestEngineSubmitValidation: a nil device is rejected at submit, and
// Stream is required for Handle.Stream.
func TestEngineSubmitValidation(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 1})
	defer eng.Close()
	if _, err := eng.Submit(context.Background(), Request{Duration: 1}); err == nil {
		t.Fatal("nil device accepted")
	}
	h, err := eng.Submit(context.Background(), Request{Device: newTrackedDevice(t, 71), Duration: trackDuration})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Stream(context.Background()); err == nil {
		t.Fatal("Stream on a batch request accepted")
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCloseDrains: Close lets in-flight requests finish, fails
// still-queued handles with ErrEngineClosed, and rejects subsequent
// batch and stream submissions with the same typed error.
func TestEngineCloseDrains(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	var handles []*Handle
	for i := 0; i < 4; i++ {
		h, err := eng.Submit(ctx, Request{Device: newTrackedDevice(t, int64(80+i)), Duration: trackDuration})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	completed, closed := 0, 0
	for i, h := range handles {
		res, err := h.Wait(ctx)
		switch {
		case err == nil:
			if res.Tracking == nil || res.Tracking.NumFrames() < 1 {
				t.Fatalf("request %d: drained handle has no image", i)
			}
			completed++
		case errors.Is(err, ErrEngineClosed):
			closed++
		default:
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if completed+closed != len(handles) {
		t.Fatalf("accounted for %d+%d of %d handles", completed, closed, len(handles))
	}
	t.Logf("close drained %d completed, %d rejected", completed, closed)

	if _, err := eng.Submit(ctx, Request{Device: newTrackedDevice(t, 90), Duration: 1}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("batch submit after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Submit(ctx, Request{Device: newTrackedDevice(t, 91), Duration: 1, Stream: true}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("stream submit after Close: %v, want ErrEngineClosed", err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestEngineStatsUnderLoad drives a known mixed workload and checks the
// lifetime counters settle to exact values.
func TestEngineStatsUnderLoad(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	s := eng.Stats()
	if s.Workers != 2 || s.MaxStreams != 1 {
		t.Fatalf("sizing: %+v", s)
	}
	if s.Completed != 0 || s.Failed != 0 || s.Frames != 0 {
		t.Fatalf("fresh engine has history: %+v", s)
	}

	const batchN = 4
	var frames int64
	var handles []*Handle
	for i := 0; i < batchN; i++ {
		h, err := eng.Submit(ctx, Request{Device: newTrackedDevice(t, int64(95+i)), Duration: trackDuration})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// One streaming request in the mix.
	sh, err := eng.Submit(ctx, Request{Device: newTrackedDevice(t, 99), Duration: trackDuration, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		frames += int64(res.Tracking.NumFrames())
		if res.QueueWait < 0 {
			t.Fatalf("negative queue wait %v", res.QueueWait)
		}
	}
	sres, err := sh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frames += int64(sres.Tracking.NumFrames())

	// Every counter, the stream's included, settles before Wait returns.
	s = eng.Stats()
	if s.Completed != batchN+1 || s.InFlight != 0 {
		t.Fatalf("stats not settled after Wait: %+v", s)
	}
	if s.Failed != 0 || s.Queued != 0 || s.ActiveStreams != 0 {
		t.Fatalf("settled stats inconsistent: %+v", s)
	}
	if s.Frames != frames {
		t.Fatalf("frames = %d, want %d", s.Frames, frames)
	}
	if s.FramesPerSecond <= 0 {
		t.Fatalf("frames/s = %v", s.FramesPerSecond)
	}
}

// TestDeviceEntryPointsShareDefaultEngine: the convenience wrappers are
// thin veneers over the shared default engine — its lifetime counters
// advance when they run.
func TestDeviceEntryPointsShareDefaultEngine(t *testing.T) {
	before := defaultEngine().Stats()
	if _, err := newTrackedDevice(t, 75).Track(context.Background(), trackDuration); err != nil {
		t.Fatal(err)
	}
	after := defaultEngine().Stats()
	if after.Completed <= before.Completed {
		t.Fatalf("Track did not route through the default engine: %d -> %d",
			before.Completed, after.Completed)
	}
}
