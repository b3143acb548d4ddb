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

	"wivi/internal/sim"
)

// Compile-time check: the pacing wrapper is a front end.
var _ FrontEnd = (*PacedFrontEnd)(nil)

// newPacedWalkerDevice builds a paced core device over a fresh walker
// scene, sharing one auto-advance fake clock between pacing and lag
// accounting.
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
	paced := NewPacedFrontEnd(fe, clock)
	dev, err := New(paced, DefaultConfig(paced))
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

// TestPacedStreamCaptureCadence drives a paced chunked capture on an
// auto-advance fake clock and asserts every chunk is delivered exactly
// at the instant its last sample arrives: due_k = epoch + n_k*SampleT,
// with zero cadence jitter on the fake clock.
func TestPacedStreamCaptureCadence(t *testing.T) {
	sc := sim.NewScene(sim.SceneConfig{Seed: 5})
	if _, err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	clk := NewFakeClock(time.Unix(1000, 0), true)
	paced := NewPacedFrontEnd(fe, clk)

	const total, chunk = 260, 50 // deliberately non-divisible: last chunk is short
	epoch := clk.Now()
	sampleT := fe.SampleT()
	var deliveredAt []time.Time
	var sizes []int
	emit := func(sub [][]complex128) error {
		deliveredAt = append(deliveredAt, clk.Now())
		sizes = append(sizes, chunkSamples(sub))
		return nil
	}
	// Null first so the capture has a precoding vector to replay.
	dev, err := New(paced, DefaultConfig(paced))
	if err != nil {
		t.Fatal(err)
	}
	nr, err := dev.Null()
	if err != nil {
		t.Fatal(err)
	}
	if err := paced.StreamCapture(nr.P, dev.cfg.Nulling.BoostDB, 0, total, chunk, emit); err != nil {
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
// touches the samples — a paced chunked capture concatenates to exactly
// the unpaced batch capture of an identical device.
func TestPacedCaptureMatchesUnpaced(t *testing.T) {
	build := func() (*Device, *sim.Device) {
		sc := sim.NewScene(sim.SceneConfig{Seed: 9})
		if _, err := sc.AddWalker(2); err != nil {
			t.Fatal(err)
		}
		fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := New(fe, DefaultConfig(fe))
		if err != nil {
			t.Fatal(err)
		}
		return dev, fe
	}
	dev, _ := build()
	wantImg, wantTr, err := dev.TrackCtx(context.Background(), 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	clk := NewFakeClock(time.Unix(0, 0), true)
	sc := sim.NewScene(sim.SceneConfig{Seed: 9})
	if _, err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	fe2, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	paced := NewPacedFrontEnd(fe2, clk)
	pdev2, err := New(paced, DefaultConfig(paced))
	if err != nil {
		t.Fatal(err)
	}
	gotImg, gotTr, err := pdev2.TrackCtx(context.Background(), 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotImg, wantImg) {
		t.Fatal("paced batch image differs from unpaced")
	}
	if !reflect.DeepEqual(gotTr.Combined, wantTr.Combined) || !reflect.DeepEqual(gotTr.PerSub, wantTr.PerSub) {
		t.Fatal("paced trace differs from unpaced")
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
