package wivi

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// trackDuration is one emulated-array window plus margin: long enough
// for a real image, short enough to keep the suite fast.
const trackDuration = 0.5

// newTrackedDevice builds a deterministic one-walker scene and its
// device. Identical seeds yield identical devices with independent but
// reproducible measurement streams, which is what the byte-identity
// tests below rely on.
func newTrackedDevice(t testing.TB, seed int64) *Device {
	t.Helper()
	sc := NewScene(SceneOptions{Seed: seed})
	if err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(sc, DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// trackAll submits one batch track per device to eng, then joins the
// results in device order: out[i] belongs to devices[i] and is nil
// exactly when errs[i] reports that scene's failure.
func trackAll(ctx context.Context, eng *Engine, devices []*Device, duration float64) (out []*TrackingResult, errs []error) {
	out = make([]*TrackingResult, len(devices))
	errs = make([]error, len(devices))
	handles := make([]*Handle, len(devices))
	for i, d := range devices {
		handles[i], errs[i] = eng.Submit(ctx, Request{Device: d, Duration: duration})
	}
	for i, h := range handles {
		if errs[i] != nil {
			continue
		}
		var res *Result
		if res, errs[i] = h.Wait(ctx); errs[i] == nil {
			out[i] = res.Tracking
		}
	}
	return out, errs
}

// TestTrackManyMatchesSequential asserts that many scenes tracked
// together on an explicit engine are byte-identical to per-scene
// sequential Track, for several worker counts: parallelism must never
// change the physics. A gesture request and a stream share each engine
// with the tracks; the message must decode exactly and the streamed
// image must match its own sequential Track.
func TestTrackManyMatchesSequential(t *testing.T) {
	const streamSeed = 8
	ctx := context.Background()
	seeds := []int64{3, 4, 5, 6, 7}
	want := make([]*TrackingResult, len(seeds))
	for i, seed := range seeds {
		res, err := newTrackedDevice(t, seed).Track(ctx, trackDuration)
		if err != nil {
			t.Fatalf("sequential track of scene %d: %v", i, err)
		}
		want[i] = res
	}
	wantStream, err := newTrackedDevice(t, streamSeed).Track(ctx, trackDuration)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		devices := make([]*Device, len(seeds))
		for i, seed := range seeds {
			devices[i] = newTrackedDevice(t, seed)
		}
		eng := NewEngine(EngineOptions{Workers: workers, QueueDepth: len(devices) + 2})
		gdev, gdur := newGestureDevice(t)
		gh, err := eng.Submit(ctx, Request{Device: gdev, Duration: gdur, Mode: Gesture})
		if err != nil {
			t.Fatalf("workers=%d: gesture submit: %v", workers, err)
		}
		sh, err := eng.Submit(ctx, Request{Device: newTrackedDevice(t, streamSeed), Duration: trackDuration, Stream: true})
		if err != nil {
			t.Fatalf("workers=%d: stream submit: %v", workers, err)
		}
		got, errs := trackAll(ctx, eng, devices, trackDuration)
		gres, gerr := gh.Wait(ctx)
		sres, serr := sh.Wait(ctx)
		eng.Close()
		for i := range seeds {
			if errs[i] != nil {
				t.Fatalf("workers=%d: scene %d: %v", workers, i, errs[i])
			}
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: scene %d image differs from sequential Track", workers, i)
			}
		}
		if gerr != nil {
			t.Fatalf("workers=%d: gesture: %v", workers, gerr)
		}
		if gres.Message == nil || gres.Message.String() != "01" {
			t.Fatalf("workers=%d: gesture decoded %v, want 01", workers, gres.Message)
		}
		if serr != nil {
			t.Fatalf("workers=%d: stream: %v", workers, serr)
		}
		if !sres.Tracking.Equal(wantStream) {
			t.Fatalf("workers=%d: streamed image differs from sequential Track", workers)
		}
	}
}

// TestFrameWorkersOptionIdentity asserts the DeviceOptions.FrameWorkers
// knob changes scheduling only, never the image.
func TestFrameWorkersOptionIdentity(t *testing.T) {
	track := func(frameWorkers int) *TrackingResult {
		sc := NewScene(SceneOptions{Seed: 21})
		if err := sc.AddWalker(2); err != nil {
			t.Fatal(err)
		}
		dev, err := NewDevice(sc, DeviceOptions{FrameWorkers: frameWorkers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Track(context.Background(), trackDuration)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := track(1)
	for _, fw := range []int{0, 8} {
		if !track(fw).Equal(want) {
			t.Fatalf("FrameWorkers=%d image differs from sequential imaging", fw)
		}
	}
}

// TestTrackCtxCanceled: Track honors its context — a canceled context
// fails the request with context.Canceled.
func TestTrackCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newTrackedDevice(t, 12).Track(ctx, trackDuration); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestTrackManyStressCancellation submits 100 scenes to a 4-worker
// engine and cancels mid-flight; with -race this doubles as the
// engine's data-race stress test. Scenes that ran before the cancel
// must carry real images; the rest must fail with context.Canceled.
func TestTrackManyStressCancellation(t *testing.T) {
	const n = 100
	devices := make([]*Device, n)
	for i := range devices {
		devices[i] = newTrackedDevice(t, int64(100+i))
	}
	eng := NewEngine(EngineOptions{Workers: 4, QueueDepth: n})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	out, errs := trackAll(ctx, eng, devices, 0.35)
	completed := 0
	for i, r := range out {
		switch {
		case errs[i] == nil:
			completed++
			if r.NumFrames() < 1 {
				t.Fatalf("completed scene %d has no frames", i)
			}
		case !errors.Is(errs[i], context.Canceled):
			t.Fatalf("scene %d error %v, want context.Canceled", i, errs[i])
		}
	}
	t.Logf("completed %d/%d scenes before cancellation", completed, n)
}
