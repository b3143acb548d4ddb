package core

// Fake-clock tests of the pacing subsystem: chunk cadence (delivery
// instants land exactly on the SampleT grid — zero jitter in fake time),
// sample identity (pacing never changes the data), frame-lag accounting,
// and the batch/stream byte-identity invariant on a 1-worker paced
// stream.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"wivi/internal/isar"
	"wivi/internal/sim"
)

// newPacedWalkerDevice builds a core device paced on clock over a fresh
// walker scene; the clock also times the frame lags.
func newPacedWalkerDevice(t *testing.T, seed int64, clock Clock) *Device {
	t.Helper()
	sc := sim.NewScene(sim.SceneConfig{Seed: seed})
	if _, err := sc.AddWalker(3); err != nil {
		t.Fatal(err)
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fe)
	cfg.Pace = clock
	dev, err := New(fe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestFakeClockSleepAndAdvance pins the manual fake clock: Sleep blocks
// until Advance passes the deadline and honors cancellation.
func TestFakeClockSleepAndAdvance(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0), false)
	woke := make(chan error, 1)
	go func() { woke <- clk.Sleep(context.Background(), 100*time.Millisecond) }()
	// The sleeper's deadline is anchored when its Sleep call runs, so
	// advance in small steps until it wakes: however the goroutines
	// interleave, the clock must have moved at least the full sleep span.
	advanced := time.Duration(0)
	for done := false; !done; {
		select {
		case err := <-woke:
			if err != nil {
				t.Fatalf("Sleep: %v", err)
			}
			if advanced < 100*time.Millisecond {
				t.Fatalf("Sleep woke after only %v of fake time", advanced)
			}
			done = true
		default:
			clk.Advance(10 * time.Millisecond)
			advanced += 10 * time.Millisecond
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { woke <- clk.Sleep(ctx, time.Hour) }()
	cancel()
	if err := <-woke; err == nil {
		t.Fatal("canceled Sleep returned nil")
	}
}

// TestRealClockSleepReusesTimers holds a wait on the real clock to no
// allocation once its timer pool is warm, and a timer left by a
// canceled wait to sleep its full span when reused.
func TestRealClockSleepReusesTimers(t *testing.T) {
	clk := RealClock()
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := clk.Sleep(ctx, time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Sleep allocates %v times per call, want 0", allocs)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := clk.Sleep(canceled, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Sleep returned %v", err)
	}
	const d = 5 * time.Millisecond
	start := time.Now()
	if err := clk.Sleep(ctx, d); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < d {
		t.Fatalf("Sleep(%v) on a reused timer returned after %v", d, waited)
	}
}

// TestPacedStreamCaptureCadence drives the paced capture loop on an
// auto-advance fake clock and asserts every chunk is delivered exactly
// at the instant its last sample arrives: due_k = epoch + n_k*SampleT,
// with zero cadence jitter on the fake clock.
func TestPacedStreamCaptureCadence(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0), true)
	dev := newPacedWalkerDevice(t, 5, clk)

	const total, chunk = 260, 50 // deliberately non-divisible: last chunk is short
	epoch := clk.Now()
	sampleT := dev.fe.SampleT()
	var deliveredAt []time.Time
	var sizes []int
	each := func(sub [][]complex128, ready []complex128) error {
		if n := chunkSamples(sub); n != len(ready) {
			t.Fatalf("chunk of %d samples combined to %d", n, len(ready))
		}
		deliveredAt = append(deliveredAt, clk.Now())
		sizes = append(sizes, len(ready))
		return nil
	}
	if _, err := dev.capture(context.Background(), 0, total, chunk, each); err != nil {
		t.Fatal(err)
	}

	wantChunks := (total + chunk - 1) / chunk
	if len(deliveredAt) != wantChunks {
		t.Fatalf("delivered %d chunks, want %d", len(deliveredAt), wantChunks)
	}
	delivered := 0
	for k, at := range deliveredAt {
		delivered += sizes[k]
		due := epoch.Add(time.Duration(float64(delivered) * sampleT * float64(time.Second)))
		if jitter := at.Sub(due); jitter != 0 {
			t.Fatalf("chunk %d delivered at %v, due %v (jitter %v; fake-clock cadence must be exact)",
				k, at, due, jitter)
		}
	}
	if delivered != total {
		t.Fatalf("delivered %d samples, want %d", delivered, total)
	}
}

// TestPacedCaptureMatchesUnpaced: pacing delays delivery but never
// touches the samples — a paced batch track and the raw capture that
// follows it equal those of an identical unpaced device.
func TestPacedCaptureMatchesUnpaced(t *testing.T) {
	capture := func(pace Clock) (*isar.Image, *Trace, *Trace) {
		sc := sim.NewScene(sim.SceneConfig{Seed: 9})
		if _, err := sc.AddWalker(2); err != nil {
			t.Fatal(err)
		}
		fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(fe)
		cfg.Pace = pace
		dev, err := New(fe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, tr, err := dev.TrackCtx(context.Background(), 0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := dev.CaptureTrace(1.0, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return img, tr, raw
	}
	wantImg, wantTr, wantRaw := capture(nil)
	gotImg, gotTr, gotRaw := capture(NewFakeClock(time.Unix(0, 0), true))
	if !reflect.DeepEqual(gotImg, wantImg) {
		t.Fatal("paced batch image differs from unpaced")
	}
	if !reflect.DeepEqual(gotTr.Combined, wantTr.Combined) {
		t.Fatal("paced trace differs from unpaced")
	}
	if !reflect.DeepEqual(gotRaw.PerSub, wantRaw.PerSub) || !reflect.DeepEqual(gotRaw.Combined, wantRaw.Combined) {
		t.Fatal("paced raw capture differs from unpaced")
	}
}

// TestPacedBatchCaptureCancel: a canceled request context interrupts a
// paced batch capture's pacing wait instead of pinning the device for
// the remaining capture span. The fake clock is manual, so the wait
// would block forever if cancellation did not reach it.
func TestPacedBatchCaptureCancel(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0), false)
	dev := newPacedWalkerDevice(t, 13, clk)
	if _, err := dev.Null(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := dev.TrackCtx(ctx, 0, 1.0)
		done <- err
	}()
	clk.AwaitSleepers(1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("TrackCtx err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("paced capture did not abort on cancellation")
	}
}

// TestPacedStreamCancel: a canceled paced stream stops inside its pacing
// wait. The fake clock is manual, so the stream's first chunk waits for
// an Advance that never comes; only the request's context can end it.
func TestPacedStreamCancel(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0), false)
	dev := newPacedWalkerDevice(t, 14, clk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := dev.ObserveStream(ctx, TrackRequest{Duration: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	clk.AwaitSleepers(1)
	cancel()
	select {
	case <-st.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("paced stream did not stop on cancellation")
	}
	if _, _, err := st.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
}

// TestPacedStreamIdentityOneWorker is the satellite invariant: a paced
// 1-worker stream still satisfies the batch/stream byte-identity
// guarantee, and its frame lags are recorded against the pacing clock.
func TestPacedStreamIdentityOneWorker(t *testing.T) {
	const duration = 1.0
	// Unpaced batch baseline on an identical device.
	sc := sim.NewScene(sim.SceneConfig{Seed: 11})
	if _, err := sc.AddWalker(3); err != nil {
		t.Fatal(err)
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	bdev, err := New(fe, DefaultConfig(fe))
	if err != nil {
		t.Fatal(err)
	}
	wantImg, wantTr, err := bdev.TrackCtx(context.Background(), 0, duration)
	if err != nil {
		t.Fatal(err)
	}

	clk := NewFakeClock(time.Unix(0, 0), true)
	pdev := newPacedWalkerDevice(t, 11, clk)
	pdev.cfg.FrameWorkers = 1
	st, err := pdev.ObserveStream(context.Background(), TrackRequest{Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		frames++
	}
	gotImg, gotTr, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotImg, wantImg) {
		t.Fatal("paced 1-worker streamed image differs from unpaced batch")
	}
	if !reflect.DeepEqual(gotTr.Combined, wantTr.Combined) {
		t.Fatal("paced 1-worker streamed trace differs from unpaced batch")
	}
	if frames != st.TotalFrames() {
		t.Fatalf("emitted %d frames, want %d", frames, st.TotalFrames())
	}
	lags := st.Lags()
	if len(lags) != frames {
		t.Fatalf("recorded %d lags for %d frames", len(lags), frames)
	}
	for i, lag := range lags {
		if lag < 0 {
			t.Fatalf("frame %d has negative lag %v", i, lag)
		}
		if st.LagAt(i) != lag {
			t.Fatalf("LagAt(%d) = %v, snapshot has %v", i, st.LagAt(i), lag)
		}
	}
	if st.WindowDuration() <= 0 {
		t.Fatalf("WindowDuration = %v", st.WindowDuration())
	}
}
