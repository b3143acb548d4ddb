package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wivi/internal/sim"
)

// Compile-time check: the physical simulation streams natively.
var _ StreamFrontEnd = (*sim.Device)(nil)

func newWalkerDevice(t *testing.T, seed int64) *Device {
	t.Helper()
	dev, _ := newSimDevice(t, seed, func(sc *sim.Scene) {
		if _, err := sc.AddWalker(3); err != nil {
			t.Fatal(err)
		}
	})
	return dev
}

// TestTrackStreamMatchesBatch is the tentpole invariant at the core
// layer: the streamed image AND trace are byte-identical to batch
// TrackCtx on an identical device, for several chunk sizes and frame
// worker counts.
func TestTrackStreamMatchesBatch(t *testing.T) {
	const duration = 1.0
	wantImg, wantTr, err := newWalkerDevice(t, 7).TrackCtx(context.Background(), 0, duration)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 1, 25, 73, 1000} {
		for _, workers := range []int{1, 4} {
			dev := newWalkerDevice(t, 7)
			dev.cfg.FrameWorkers = workers
			st, err := dev.TrackStreamCtx(context.Background(), 0, duration, StreamOptions{ChunkSamples: chunk})
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			// Consume incrementally through Next, then assemble.
			seen := 0
			for {
				fr, ok := st.Next()
				if !ok {
					break
				}
				if fr.Spec.Index != seen {
					t.Fatalf("frame %d emitted at position %d", fr.Spec.Index, seen)
				}
				seen++
			}
			img, tr, err := st.Result()
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			if seen != st.TotalFrames() || seen != img.NumFrames() {
				t.Fatalf("chunk=%d: emitted %d frames, total %d, image %d",
					chunk, seen, st.TotalFrames(), img.NumFrames())
			}
			if !reflect.DeepEqual(img, wantImg) {
				t.Fatalf("chunk=%d workers=%d: streamed image differs from batch", chunk, workers)
			}
			if !reflect.DeepEqual(tr.Combined, wantTr.Combined) {
				t.Fatalf("chunk=%d workers=%d: streamed combined trace differs", chunk, workers)
			}
			if !reflect.DeepEqual(tr.PerSub, wantTr.PerSub) {
				t.Fatalf("chunk=%d workers=%d: streamed per-subcarrier trace differs", chunk, workers)
			}
		}
	}
}

// TestTrackStreamFirstFrameEarly verifies actual streaming at the core
// layer: the first frame is emitted after ~Window samples of capture,
// not after the whole capture — observable because Next returns before
// Result is even requested, while the capture holds the device lock.
func TestTrackStreamFirstFrameEarly(t *testing.T) {
	dev := newWalkerDevice(t, 8)
	st, err := dev.TrackStreamCtx(context.Background(), 0, 2.0, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := st.Next()
	if !ok {
		t.Fatalf("no first frame: %v", st.Err())
	}
	if fr.Spec.Index != 0 {
		t.Fatalf("first frame index %d", fr.Spec.Index)
	}
	// The first frame's window center sits near Window/2 samples — far
	// before the capture end.
	w := dev.cfg.ISAR.Window
	wantTime := (float64(w) / 2) * dev.fe.SampleT()
	if fr.Time > wantTime*1.5 {
		t.Fatalf("first frame time %v, want ~%v", fr.Time, wantTime)
	}
	if _, _, err := st.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackStreamValidation(t *testing.T) {
	dev := newWalkerDevice(t, 9)
	if _, err := dev.TrackStreamCtx(context.Background(), 0, -1, StreamOptions{}); err == nil {
		t.Fatal("negative duration accepted")
	}
	// Shorter than one analysis window: no image either way, so batch
	// and stream both refuse with the typed error before nulling or
	// capturing anything.
	short := TrackRequest{Duration: 0.1}
	if _, err := dev.ObserveStream(context.Background(), short); !errors.Is(err, ErrShortCapture) {
		t.Fatalf("sub-window stream: err = %v, want ErrShortCapture", err)
	}
	if _, err := dev.Observe(context.Background(), short); !errors.Is(err, ErrShortCapture) {
		t.Fatalf("sub-window batch: err = %v, want ErrShortCapture", err)
	}
	if dev.NullingResult() != nil {
		t.Fatal("a rejected sub-window request nulled the device")
	}
	// One window exactly is one frame.
	obs, err := dev.Observe(context.Background(), TrackRequest{Duration: 0.32})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(obs.Image.Times); got != 1 {
		t.Fatalf("one-window capture imaged %d frames, want 1", got)
	}
}

// TestTrackStreamCanceled cancels mid-capture: the stream must finish
// promptly with context.Canceled and the device must stay usable.
func TestTrackStreamCanceled(t *testing.T) {
	dev := newWalkerDevice(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := dev.TrackStreamCtx(ctx, 0, 2.0, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first frame proves the capture is mid-flight.
	if _, ok := st.Next(); !ok {
		t.Fatalf("no first frame: %v", st.Err())
	}
	cancel()
	<-st.Done()
	if _, _, err := st.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", st.Err())
	}
	// Drain returns false after the end.
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	// The radio is released: a fresh batch capture still works.
	if _, _, err := dev.TrackCtx(context.Background(), 0, 0.5); err != nil {
		t.Fatalf("device unusable after canceled stream: %v", err)
	}
}

// TestBatchAdapterStream runs the stream over a front end hidden behind
// the batch-only FrontEnd interface, exercising the compatibility
// adapter: identical output, just without the latency benefit.
func TestBatchAdapterStream(t *testing.T) {
	dev := newWalkerDevice(t, 11)
	wantImg, _, err := dev.TrackCtx(context.Background(), 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dev2 := newWalkerDevice(t, 11)
	dev2.fe = batchOnly{dev2.fe} // strip the StreamFrontEnd interface
	st, err := dev2.TrackStreamCtx(context.Background(), 0, 1.0, StreamOptions{ChunkSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, wantImg) {
		t.Fatal("batch-adapter streamed image differs from batch")
	}
}

// batchOnly hides a front end's native streaming support.
type batchOnly struct{ FrontEnd }

// TestEmitChunks replays a recorded capture through the chunk adapter:
// concatenated chunks must reproduce the recording, and an emit error
// must abort the replay.
func TestEmitChunks(t *testing.T) {
	dev := newWalkerDevice(t, 12)
	tr, err := dev.CaptureTrace(0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Samples()
	got := make([][]complex128, len(tr.PerSub))
	calls := 0
	err = EmitChunks(tr.PerSub, 60, func(sub [][]complex128) error {
		calls++
		for k := range sub {
			got[k] = append(got[k], sub[k]...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (n + 59) / 60; calls != want {
		t.Fatalf("emit called %d times, want %d", calls, want)
	}
	if !reflect.DeepEqual(got, tr.PerSub) {
		t.Fatal("replayed chunks differ from the recording")
	}
	boom := errors.New("boom")
	calls = 0
	err = EmitChunks(tr.PerSub, 60, func([][]complex128) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("emit error not propagated: err=%v calls=%d", err, calls)
	}
	if err := EmitChunks(tr.PerSub, 0, func([][]complex128) error { return nil }); err == nil {
		t.Fatal("zero chunk accepted")
	}
}
