package main

// The in-process engine modes' shared plumbing, and the batch and
// stream modes.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"wivi"
	"wivi/internal/benchreport"
	"wivi/internal/isar"
)

// walker builds the one-walker device every mode tracks: a fresh scene
// of the given seed whose walker outlasts a trackDur capture. Fresh
// same-seed devices capture bit-identical data, which every identity
// check relies on.
func walker(seed int64, trackDur float64, opts wivi.DeviceOptions) (*wivi.Device, error) {
	sc := wivi.NewScene(wivi.SceneOptions{Seed: seed})
	if err := sc.AddWalker(trackDur + 1); err != nil {
		return nil, err
	}
	return wivi.NewDevice(sc, opts)
}

// walkers builds n walker devices seeded seed, seed+1, ...
func walkers(seed int64, n int, trackDur float64, opts wivi.DeviceOptions) ([]*wivi.Device, error) {
	devs := make([]*wivi.Device, n)
	for i := range devs {
		var err error
		if devs[i], err = walker(seed+int64(i), trackDur, opts); err != nil {
			return nil, err
		}
	}
	return devs, nil
}

// baseline tracks each device in turn with a plain batch Track, the
// reference the modes check their results against, and returns the
// results with the summed Track time. Callers pass fresh devices built
// like the ones under test.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func baseline(devs []*wivi.Device, trackDur float64) ([]*wivi.TrackingResult, time.Duration, error) {
	want := make([]*wivi.TrackingResult, len(devs))
	var took time.Duration
	for i, d := range devs {
		t0 := time.Now()
		var err error
		if want[i], err = d.Track(context.Background(), trackDur); err != nil {
			return nil, 0, fmt.Errorf("baseline scene %d: %w", i, err)
		}
		took += time.Since(t0)
	}
	return want, took, nil
}

// frameTimes is what draining one in-process stream measured.
type frameTimes struct {
	ttff time.Duration   // from the caller's start instant to the first frame
	gaps []time.Duration // between consecutive frames
	lags []time.Duration // each frame behind its window's last sample
}

// drain consumes ts to its end, timing its frames from start.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func drain(ts *wivi.TrackStream, start time.Time) frameTimes {
	// Sized up front: growing them would add to the allocations per
	// frame the stream mode counts.
	ft := frameTimes{
		gaps: make([]time.Duration, 0, ts.TotalFrames()),
		lags: make([]time.Duration, 0, ts.TotalFrames()),
	}
	last := start
	for fr := range ts.Frames() {
		now := time.Now()
		if len(ft.lags) == 0 {
			ft.ttff = now.Sub(start)
		} else {
			ft.gaps = append(ft.gaps, now.Sub(last))
		}
		last = now
		ft.lags = append(ft.lags, fr.Lag)
	}
	return ft
}

// runBatch measures the concurrent engine's scene throughput against
// the sequential baseline on identical scene sets.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runBatch(out io.Writer, c config) (*benchreport.Report, error) {
	rep := newBenchReport("batch", c.workers, c.batch, c.trackDur)
	fmt.Fprintf(out, "engine throughput: %d scenes x %.1fs capture, %d workers\n", c.batch, c.trackDur, c.workers)

	// FrameWorkers 1 makes the baseline truly sequential (no per-frame
	// fan-out either); the knob never changes the image, so the identity
	// check below still compares like with like.
	seqDevs, err := walkers(c.seed, c.batch, c.trackDur, wivi.DeviceOptions{FrameWorkers: 1})
	if err != nil {
		return nil, err
	}
	want, seqElapsed, err := baseline(seqDevs, c.trackDur)
	if err != nil {
		return nil, err
	}
	parDevs, err := walkers(c.seed, c.batch, c.trackDur, wivi.DeviceOptions{})
	if err != nil {
		return nil, err
	}
	parStart := time.Now()
	got, err := trackOnEngine(parDevs, c.workers, c.trackDur)
	if err != nil {
		return nil, err
	}
	parElapsed := time.Since(parStart)

	// The engine must not change the physics: identical scenes produce
	// bit-identical images whichever path computed them.
	for i := range want {
		if !want[i].Equal(got[i]) {
			return nil, fmt.Errorf("scene %d: parallel result differs from sequential", i)
		}
	}

	seqRate := float64(c.batch) / seqElapsed.Seconds()
	parRate := float64(c.batch) / parElapsed.Seconds()
	rep.Identity = true
	rep.ElapsedS = parElapsed.Seconds()
	rep.ScenesPerSec = parRate
	rep.SpeedupX = seqElapsed.Seconds() / parElapsed.Seconds()
	fmt.Fprintf(out, "  sequential: %8.2fs  (%.2f scenes/s)\n", seqElapsed.Seconds(), seqRate)
	fmt.Fprintf(out, "  parallel:   %8.2fs  (%.2f scenes/s)\n", parElapsed.Seconds(), parRate)
	fmt.Fprintf(out, "  speedup:    %.2fx; outputs identical across %d scenes\n", rep.SpeedupX, c.batch)
	return rep, nil
}

// trackOnEngine submits one batch track per device to a private engine
// of the given worker count, with queue room for the whole batch, and
// joins the results in device order.
func trackOnEngine(devices []*wivi.Device, workers int, trackDur float64) ([]*wivi.TrackingResult, error) {
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: workers, QueueDepth: len(devices)})
	defer eng.Close()
	ctx := context.Background()
	handles := make([]*wivi.Handle, len(devices))
	for i, d := range devices {
		h, err := eng.Submit(ctx, wivi.Request{Device: d, Duration: trackDur})
		if err != nil {
			return nil, fmt.Errorf("parallel scene %d: %w", i, err)
		}
		handles[i] = h
	}
	out := make([]*wivi.TrackingResult, len(devices))
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("parallel scene %d: %w", i, err)
		}
		out[i] = res.Tracking
	}
	return out, nil
}

// runStream measures the streaming chain's latency profile against the
// batch baseline on identical scenes: time-to-first-frame (the batch
// path's first frame arrives only after the whole capture), inter-frame
// gaps, per-frame lag percentiles, frame throughput (absolute and per
// core, the capacity figure that bounds concurrent paced streams per
// node), whole-chain allocations per frame and the byte-identity check.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runStream(out io.Writer, c config) (*benchreport.Report, error) {
	fmt.Fprintf(out, "streaming latency: %d scenes x %.1fs capture\n", c.batch, c.trackDur)
	rep := newBenchReport("stream", 1, c.batch, c.trackDur)
	// The baseline's devices auto-null inside Track, as the streamed
	// ones do, so both paths pay the same nulling cost.
	base, err := walkers(c.seed, c.batch, c.trackDur, wivi.DeviceOptions{})
	if err != nil {
		return nil, err
	}
	want, batchSum, err := baseline(base, c.trackDur)
	if err != nil {
		return nil, err
	}
	devs, err := walkers(c.seed, c.batch, c.trackDur, wivi.DeviceOptions{})
	if err != nil {
		return nil, err
	}

	var (
		ttffSum, streamSum time.Duration
		gaps, lags         []time.Duration
		mallocs            uint64
	)
	// Nothing else runs in this mode, so from here on the frame-kernel
	// counters move only for the streams.
	ksBefore := isar.ReadKernelStats()
	for i, dev := range devs {
		// Whole-chain accounting: the Mallocs delta across the streamed
		// run is exactly this scene's capture, combine, frame kernel and
		// assembly.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		ts, err := dev.TrackStream(context.Background(), c.trackDur)
		if err != nil {
			return nil, fmt.Errorf("stream scene %d: %w", i, err)
		}
		rep.WindowMs = ms(ts.WindowDuration())
		ft := drain(ts, start)
		got, err := ts.Result()
		if err != nil {
			return nil, fmt.Errorf("stream scene %d: %w", i, err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs

		// The streamed image must be byte-identical to batch Track.
		if !got.Equal(want[i]) {
			return nil, fmt.Errorf("scene %d: streamed result differs from batch Track", i)
		}
		if len(ft.lags) != want[i].NumFrames() {
			return nil, fmt.Errorf("scene %d: streamed %d frames, batch has %d", i, len(ft.lags), want[i].NumFrames())
		}
		ttffSum += ft.ttff
		streamSum += elapsed
		gaps = append(gaps, ft.gaps...)
		lags = append(lags, ft.lags...)
		fmt.Fprintf(out, "  scene %d: %3d frames, first frame %6.1fms (%4.1f%% of stream), stream %6.1fms\n",
			i, len(ft.lags), ms(ft.ttff), 100*ft.ttff.Seconds()/elapsed.Seconds(), ms(elapsed))
	}
	n := float64(c.batch)
	rep.Identity = true
	rep.ElapsedS = streamSum.Seconds()
	rep.ScenesPerSec = n / streamSum.Seconds()
	rep.TTFFMs = ms(ttffSum) / n
	rep.FrameLagP50Ms = percentileMs(lags, 50)
	rep.FrameLagP95Ms = percentileMs(lags, 95)
	rep.FrameLagP99Ms = percentileMs(lags, 99)
	rep.FramesPerSec = float64(len(lags)) / streamSum.Seconds()
	rep.FramesPerSecPerCore = rep.FramesPerSec / float64(rep.GOMAXPROCS)
	rep.AllocsPerFrame = float64(mallocs) / float64(len(lags))
	fmt.Fprintf(out, "  time-to-first-frame: %.1fms mean (batch path: %.1fms — the whole capture)\n",
		rep.TTFFMs, ms(batchSum)/n)
	if len(gaps) > 0 {
		var gapSum time.Duration
		for _, g := range gaps {
			gapSum += g
		}
		fmt.Fprintf(out, "  inter-frame latency: %.2fms mean, %.2fms max over %d gaps\n",
			ms(gapSum)/float64(len(gaps)), ms(slices.Max(gaps)), len(gaps))
	}
	if ks := isar.ReadKernelStats(); ks.Frames > ksBefore.Frames {
		kf := float64(ks.Frames - ksBefore.Frames)
		rep.StageCovUs = float64(ks.CovNs-ksBefore.CovNs) / kf / 1e3
		rep.StageEigUs = float64(ks.EigNs-ksBefore.EigNs) / kf / 1e3
		rep.StageSpectrumUs = float64(ks.SpecNs-ksBefore.SpecNs) / kf / 1e3
		fmt.Fprintf(out, "  stages: cov %.0fus  eig %.0fus  spectrum %.0fus per frame\n",
			rep.StageCovUs, rep.StageEigUs, rep.StageSpectrumUs)
	}
	fmt.Fprintf(out, "  frame lag: p50 %.2fms  p95 %.2fms  p99 %.2fms over %d frames\n",
		rep.FrameLagP50Ms, rep.FrameLagP95Ms, rep.FrameLagP99Ms, len(lags))
	fmt.Fprintf(out, "  throughput: %.2f scenes/s streamed (%.2f batch); outputs identical across %d scenes\n",
		rep.ScenesPerSec, n/batchSum.Seconds(), c.batch)
	fmt.Fprintf(out, "  frames: %.1f frames/s (%.2f per core over %d), %.1f allocs/frame whole-chain (gate %d)\n",
		rep.FramesPerSec, rep.FramesPerSecPerCore, rep.GOMAXPROCS, rep.AllocsPerFrame, benchreport.StreamAllocsPerFrameGate)
	return rep, nil
}
