package wivi

// Public-API tests of the real-time pacing subsystem: a paced device's
// streamed output stays byte-identical to an unpaced batch Track, its
// capture really spans wall clock, frame Lag values are populated, and
// deadline admission rejects provably-late requests with the typed
// sentinel.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// newPacedTestScene builds identical walker scenes for the paced and
// unpaced devices (same seed -> bit-identical measurement streams).
func newPacedTestScene(t *testing.T, seed int64) *Scene {
	t.Helper()
	sc := NewScene(SceneOptions{Seed: seed})
	if err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestPacedStreamMatchesBatchRealClock streams a short capture on a
// real-clock paced device and checks wall-clock pacing, identity with
// the unpaced batch path, and lag accounting. It also holds the
// real-time SLO: the unpaced chain computes the capture at least as
// fast as the radio delivers it (a real-time factor of at least 1; it
// measures about 300, and above 30 under -race), and the p95 frame lag
// stays under one analysis window. The capture is kept to 0.4 s so the
// test stays fast.
func TestPacedStreamMatchesBatchRealClock(t *testing.T) {
	const duration = 0.4
	span := time.Duration(duration * float64(time.Second))
	bdev, err := NewDevice(newPacedTestScene(t, 31), DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bdev.Null(); err != nil { // time the tracking chain, not nulling
		t.Fatal(err)
	}
	computeStart := time.Now()
	want, err := bdev.Track(context.Background(), duration)
	if err != nil {
		t.Fatal(err)
	}
	if compute := time.Since(computeStart); compute > span {
		t.Fatalf("unpaced Track computed a %v capture in %v: real-time factor %.2f < 1",
			span, compute, span.Seconds()/compute.Seconds())
	}

	pdev, err := NewDevice(newPacedTestScene(t, 31), DeviceOptions{Paced: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdev.Null(); err != nil { // keep nulling out of the paced span
		t.Fatal(err)
	}
	start := time.Now()
	ts, err := pdev.TrackStream(context.Background(), duration)
	if err != nil {
		t.Fatal(err)
	}
	var lags []time.Duration
	for fr := range ts.Frames() {
		if fr.Lag < 0 {
			t.Fatalf("frame %d: negative lag %v", fr.Index, fr.Lag)
		}
		lags = append(lags, fr.Lag)
	}
	got, err := ts.Result()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if !got.Equal(want) {
		t.Fatal("paced streamed result differs from unpaced batch Track")
	}
	if len(lags) != want.NumFrames() {
		t.Fatalf("streamed %d frames, batch has %d", len(lags), want.NumFrames())
	}
	// A paced capture cannot beat the radio: the capture loop releases
	// the last chunk no earlier than the capture's span after it began.
	if elapsed < span {
		t.Fatalf("paced stream finished in %v, impossible under %v pacing", elapsed, span)
	}
	if ts.WindowDuration() <= 0 {
		t.Fatalf("WindowDuration = %v", ts.WindowDuration())
	}
	slices.Sort(lags)
	if p95 := lags[(len(lags)*95+99)/100-1]; p95 >= ts.WindowDuration() {
		t.Fatalf("p95 frame lag %v, want under one window (%v)", p95, ts.WindowDuration())
	}
}

// TestRequestDeadlineInfeasible exercises the typed rejection: a paced
// device's capture is wall-clock floored at Duration, so a tighter
// Deadline must fail at Submit with ErrDeadlineInfeasible.
func TestRequestDeadlineInfeasible(t *testing.T) {
	pdev, err := NewDevice(newPacedTestScene(t, 33), DeviceOptions{Paced: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()

	for _, stream := range []bool{false, true} {
		_, err := eng.Submit(context.Background(), Request{
			Device:   pdev,
			Duration: 2,
			Stream:   stream,
			Deadline: 200 * time.Millisecond,
		})
		if !errors.Is(err, ErrDeadlineInfeasible) {
			t.Fatalf("stream=%v: Submit err = %v, want ErrDeadlineInfeasible", stream, err)
		}
	}
	// A feasible deadline on an unpaced device sails through.
	udev, err := NewDevice(newPacedTestScene(t, 33), DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(context.Background(), Request{Device: udev, Duration: 1, Deadline: time.Minute})
	if err != nil {
		t.Fatalf("feasible submit: %v", err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStatsLatencyProfiles checks that the engine's latency
// histograms populate for both batch and streaming traffic and expose
// monotone percentiles.
func TestEngineStatsLatencyProfiles(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	dev, err := NewDevice(newPacedTestScene(t, 35), DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(ctx, Request{Device: dev, Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sdev, err := NewDevice(newPacedTestScene(t, 36), DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := eng.Submit(ctx, Request{Device: sdev, Duration: 1, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Stream latency counters settle before Wait returns.
	st := eng.Stats()
	if st.QueueWait.Count < 2 {
		t.Fatalf("QueueWait.Count = %d, want >= 2", st.QueueWait.Count)
	}
	if st.EndToEnd.Count < 2 {
		t.Fatalf("EndToEnd.Count = %d, want >= 2", st.EndToEnd.Count)
	}
	if st.FrameLag.Count == 0 {
		t.Fatal("FrameLag.Count = 0 after a completed stream")
	}
	for _, p := range []LatencyProfile{st.QueueWait, st.FrameLag, st.EndToEnd} {
		if p.P50 > p.P95 || p.P95 > p.P99 {
			t.Fatalf("percentiles not monotone: %+v", p)
		}
	}
}
