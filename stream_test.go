package wivi

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// newStreamDevice builds the deterministic one-walker device used by the
// stream/batch identity tests, with an explicit worker knob.
func newStreamDevice(t testing.TB, seed int64, frameWorkers int) *Device {
	t.Helper()
	sc := NewScene(SceneOptions{Seed: seed})
	if err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(sc, DeviceOptions{FrameWorkers: frameWorkers})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestTrackStreamMatchesTrack is the acceptance criterion of the
// streaming refactor: the streamed image is byte-identical to batch
// Track for worker counts {1, 4, GOMAXPROCS}. Chunk sizes other than the
// hop a stream reads are core's TestTrackStreamMatchesBatch.
func TestTrackStreamMatchesTrack(t *testing.T) {
	const seed = 41
	want, err := newStreamDevice(t, seed, 0).Track(context.Background(), trackDuration)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		dev := newStreamDevice(t, seed, workers)
		ts, err := dev.TrackStream(context.Background(), trackDuration)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Consume the frames as they arrive; indices must ascend.
		frames := 0
		for fr := range ts.Frames() {
			if fr.Index != frames {
				t.Fatalf("frame %d emitted at position %d", fr.Index, frames)
			}
			if len(fr.Power) != len(ts.Thetas()) {
				t.Fatalf("frame %d spectrum length %d, want %d", fr.Index, len(fr.Power), len(ts.Thetas()))
			}
			frames++
		}
		if err := ts.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := ts.Result()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if frames != ts.TotalFrames() || frames != got.NumFrames() {
			t.Fatalf("workers=%d: %d frames emitted, total %d, image %d",
				workers, frames, ts.TotalFrames(), got.NumFrames())
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: streamed image differs from batch Track", workers)
		}
	}
}

// TestTrackStreamWholeChain streams four fresh one-walker devices for
// 4 s each, every TrackStream drained to its Result, and bounds what the
// whole chain costs per frame: heap allocations in (0, 64] (the
// Mallocs delta across TrackStream, the drain and Result, nulling
// included), and a mean first frame within half the mean stream time.
// It measures about 8 allocations per frame and a first frame at about
// a tenth of the stream, so both bounds hold with 5× margin, -race
// included.
func TestTrackStreamWholeChain(t *testing.T) {
	const (
		scenes         = 4
		duration       = 4.0
		allocsPerFrame = 64
	)
	var mallocs uint64
	var frames int
	var ttff, streamed time.Duration
	for i := range scenes {
		sc := NewScene(SceneOptions{Seed: int64(1 + i)})
		if err := sc.AddWalker(duration + 1); err != nil {
			t.Fatal(err)
		}
		dev, err := NewDevice(sc, DeviceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		ts, err := dev.TrackStream(context.Background(), duration)
		if err != nil {
			t.Fatalf("scene %d: %v", i, err)
		}
		n := 0
		for range ts.Frames() {
			if n == 0 {
				ttff += time.Since(start)
			}
			n++
		}
		if _, err := ts.Result(); err != nil {
			t.Fatalf("scene %d: %v", i, err)
		}
		streamed += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if n == 0 || n != ts.TotalFrames() {
			t.Fatalf("scene %d: streamed %d frames, TotalFrames %d", i, n, ts.TotalFrames())
		}
		frames += n
	}
	per := float64(mallocs) / float64(frames)
	t.Logf("%d frames: %.1f allocations per frame, first frames at %.3f of the stream time",
		frames, per, ttff.Seconds()/streamed.Seconds())
	if per <= 0 || per > allocsPerFrame {
		t.Errorf("whole chain allocates %.1f objects per frame, want (0, %d]", per, allocsPerFrame)
	}
	if ttff > streamed/2 {
		t.Errorf("first frames took %v of %v streamed, want at most half", ttff, streamed)
	}
}

// TestTrackStreamWhileBatchTracks interleaves a stream with batch Track
// calls on other devices through the shared engine: both paths complete
// and the stream result stays byte-identical.
func TestTrackStreamWhileBatchTracks(t *testing.T) {
	want, err := newStreamDevice(t, 43, 0).Track(context.Background(), trackDuration)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := newStreamDevice(t, 43, 0).TrackStream(context.Background(), trackDuration)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newStreamDevice(t, 44, 0).Track(context.Background(), trackDuration); err != nil {
		t.Fatalf("batch track alongside stream: %v", err)
	}
	got, err := ts.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("streamed image differs from batch Track")
	}
}

// TestTrackStreamCancelNoLeaks cancels streams mid-flight and checks no
// goroutines leak — under -race this doubles as the streaming chain's
// data-race stress. The engine's worker pool is persistent, so the
// baseline is measured after a first stream has warmed it up.
func TestTrackStreamCancelNoLeaks(t *testing.T) {
	// Warm up the shared engine and the frame-token pool.
	warm, err := newStreamDevice(t, 45, 0).TrackStream(context.Background(), trackDuration)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Result(); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ts, err := newStreamDevice(t, int64(50+i), 0).TrackStream(ctx, 1.5)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Cancel at varying progress points, including before any frame.
		for f := 0; f < i; f++ {
			if _, ok := ts.Next(); !ok {
				break
			}
		}
		cancel()
		if _, err := ts.Result(); !errors.Is(err, context.Canceled) {
			// The tiny captures can win the race against cancel; completed
			// streams must then be fully intact.
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
		}
	}
	// Goroutines must drain back to the warmed-up baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDecodeMessageCtx exercises DecodeMessage and its context: the
// engine-routed gesture path decodes the sent message, and a canceled
// context fails the request with context.Canceled.
func TestDecodeMessageCtx(t *testing.T) {
	build := func() (*Device, float64) {
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
	dev, dur := build()
	msg, err := dev.DecodeMessage(context.Background(), dur)
	if err != nil {
		t.Fatal(err)
	}
	if msg.String() != "01" {
		t.Fatalf("decoded %q, want \"01\"", msg.String())
	}
	dev2, dur2 := build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dev2.DecodeMessage(ctx, dur2); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled decode: %v, want context.Canceled", err)
	}
}
