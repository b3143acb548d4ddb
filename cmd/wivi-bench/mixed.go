package main

// Mixed-workload mode (-mixed): the Engine service API under the
// traffic shape it was redesigned for — concurrent track, gesture and
// streaming requests sharing one explicit pool. Reports per-mode
// completion counts, mean queue wait and end-to-end latency, the
// engine's own Stats() counters, and re-verifies the correctness
// invariants under mixing: track and streamed images byte-identical to
// an independently computed baseline, gesture messages decoded exactly.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"wivi"
)

// mixedKind indexes the per-mode aggregates.
type mixedKind int

const (
	kindTrack mixedKind = iota
	kindGesture
	kindStream
	numKinds
)

func (k mixedKind) String() string {
	switch k {
	case kindGesture:
		return "gesture"
	case kindStream:
		return "stream"
	default:
		return "track"
	}
}

type mixedSample struct {
	kind      mixedKind
	queueWait time.Duration
	latency   time.Duration
	err       error
}

// runMixedMode submits perMode requests of each kind against one
// explicit engine and aggregates per-mode figures.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runMixedMode(out io.Writer, perMode, workers int, seed int64, trackDur float64) (*benchReport, error) {
	rep := newBenchReport("mixed", workers, perMode, trackDur)
	fmt.Fprintf(out, "mixed workload: %d track + %d gesture + %d stream requests, %d workers\n",
		perMode, perMode, perMode, workers)

	newWalkerDevice := func(s int64) (*wivi.Device, error) {
		sc := wivi.NewScene(wivi.SceneOptions{Seed: s})
		if err := sc.AddWalker(trackDur + 1); err != nil {
			return nil, err
		}
		return wivi.NewDevice(sc, wivi.DeviceOptions{})
	}
	// The known-good two-bit gesture scene; fresh builds with one seed
	// are byte-identical, so every gesture request must decode "01".
	newGestureDevice := func() (*wivi.Device, float64, error) {
		sc := wivi.NewScene(wivi.SceneOptions{Seed: 21, RoomWidth: 11, RoomDepth: 8})
		dur, err := sc.AddGestureSender(wivi.GestureMessage{Bits: []wivi.Bit{wivi.Bit0, wivi.Bit1}, Distance: 3})
		if err != nil {
			return nil, 0, err
		}
		dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{})
		return dev, dur, err
	}

	// Identity baselines, computed before the mixed run on fresh
	// identical devices: mixing traffic must not change the physics.
	trackWant := make([]*wivi.TrackingResult, perMode)
	streamWant := make([]*wivi.TrackingResult, perMode)
	for i := 0; i < perMode; i++ {
		dev, err := newWalkerDevice(seed + int64(i))
		if err != nil {
			return nil, err
		}
		if trackWant[i], err = dev.Track(context.Background(), trackDur); err != nil {
			return nil, fmt.Errorf("track baseline %d: %w", i, err)
		}
		sdev, err := newWalkerDevice(seed + 1000 + int64(i))
		if err != nil {
			return nil, err
		}
		if streamWant[i], err = sdev.Track(context.Background(), trackDur); err != nil {
			return nil, fmt.Errorf("stream baseline %d: %w", i, err)
		}
	}

	eng := wivi.NewEngine(wivi.EngineOptions{Workers: workers})
	defer eng.Close()
	ctx := context.Background()
	samples := make(chan mixedSample, 3*perMode)
	var wg sync.WaitGroup
	start := time.Now()

	run := func(kind mixedKind, req wivi.Request, check func(*wivi.Result) error) {
		defer wg.Done()
		t0 := time.Now()
		h, err := eng.Submit(ctx, req)
		if err != nil {
			samples <- mixedSample{kind: kind, err: fmt.Errorf("%v submit: %w", kind, err)}
			return
		}
		if req.Stream {
			ts, err := h.Stream(ctx)
			if err != nil {
				samples <- mixedSample{kind: kind, err: fmt.Errorf("stream start: %w", err)}
				return
			}
			frames := 0
			for range ts.Frames() {
				frames++
			}
			if frames == 0 {
				samples <- mixedSample{kind: kind, err: fmt.Errorf("stream emitted no frames: %v", ts.Err())}
				return
			}
		}
		res, err := h.Wait(ctx)
		if err == nil {
			err = check(res)
		}
		sample := mixedSample{kind: kind, latency: time.Since(t0), err: err}
		if res != nil {
			sample.queueWait = res.QueueWait
		}
		samples <- sample
	}

	for i := 0; i < perMode; i++ {
		i := i
		tdev, err := newWalkerDevice(seed + int64(i))
		if err != nil {
			return nil, err
		}
		gdev, gdur, err := newGestureDevice()
		if err != nil {
			return nil, err
		}
		sdev, err := newWalkerDevice(seed + 1000 + int64(i))
		if err != nil {
			return nil, err
		}
		wg.Add(3)
		go run(kindTrack, wivi.Request{Device: tdev, Duration: trackDur}, func(r *wivi.Result) error {
			if !r.Tracking.Equal(trackWant[i]) {
				return fmt.Errorf("track %d: mixed-engine image differs from baseline", i)
			}
			return nil
		})
		go run(kindGesture, wivi.Request{Device: gdev, Duration: gdur, Mode: wivi.Gesture}, func(r *wivi.Result) error {
			if r.Message == nil || r.Message.String() != "01" {
				return fmt.Errorf("gesture %d: decoded %v, want 01", i, r.Message)
			}
			return nil
		})
		go run(kindStream, wivi.Request{Device: sdev, Duration: trackDur, Stream: true}, func(r *wivi.Result) error {
			if !r.Tracking.Equal(streamWant[i]) {
				return fmt.Errorf("stream %d: streamed image differs from batch baseline", i)
			}
			return nil
		})
	}
	wg.Wait()
	close(samples)
	elapsed := time.Since(start).Seconds()

	var count [numKinds]int
	var waitSum, latSum [numKinds]time.Duration
	for s := range samples {
		if s.err != nil {
			return nil, s.err
		}
		count[s.kind]++
		waitSum[s.kind] += s.queueWait
		latSum[s.kind] += s.latency
	}
	rep.PerMode = make(map[string]modeFigures, numKinds)
	for k := mixedKind(0); k < numKinds; k++ {
		if count[k] != perMode {
			return nil, fmt.Errorf("%v: %d of %d requests completed", k, count[k], perMode)
		}
		n := time.Duration(count[k])
		rep.PerMode[k.String()] = modeFigures{
			Requests:        count[k],
			RequestsPerSec:  float64(count[k]) / elapsed,
			QueueWaitMeanMs: float64(waitSum[k]/n) / 1e6,
			LatencyMeanMs:   float64(latSum[k]/n) / 1e6,
		}
		fmt.Fprintf(out, "  %-8s %d requests, %6.2f req/s, queue wait %8.2fms mean, latency %8.2fms mean\n",
			k.String()+":", count[k], float64(count[k])/elapsed,
			float64(waitSum[k]/n)/1e6, float64(latSum[k]/n)/1e6)
	}
	// Stream counters settle one scheduling beat after the final frame;
	// give them that beat before asserting.
	st := eng.Stats()
	for deadline := time.Now().Add(2 * time.Second); st.Completed != int64(3*perMode) && time.Now().Before(deadline); st = eng.Stats() {
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(out, "  engine:  %d completed, %d failed, %d frames (%.1f frames/s), queued %d, in-flight %d\n",
		st.Completed, st.Failed, st.Frames, st.FramesPerSecond, st.Queued, st.InFlight)
	fmt.Fprintf(out, "  latency: queue wait p50 %.2fms p95 %.2fms p99 %.2fms; end-to-end p50 %.2fms p95 %.2fms p99 %.2fms\n",
		ms(st.QueueWait.P50), ms(st.QueueWait.P95), ms(st.QueueWait.P99),
		ms(st.EndToEnd.P50), ms(st.EndToEnd.P95), ms(st.EndToEnd.P99))
	fmt.Fprintf(out, "  identity checks: %d track == baseline, %d stream == batch, %d messages == \"01\" in %.2fs\n",
		perMode, perMode, perMode, elapsed)
	if st.Completed != int64(3*perMode) {
		return nil, fmt.Errorf("engine stats report %d completed, want %d", st.Completed, 3*perMode)
	}
	rep.Identity = true
	rep.ElapsedS = elapsed
	rep.ScenesPerSec = float64(3*perMode) / elapsed
	rep.Engine = snapshotEngine(st)
	return rep, nil
}
