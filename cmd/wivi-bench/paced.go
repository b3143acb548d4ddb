package main

// Paced real-time mode (-paced): N concurrent streams on paced devices
// (samples delivered at the radio's SampleT cadence, wall-clock bound
// like the paper's USRP) driven through one explicit engine. The mode
// measures the figures that matter on the clock the hardware imposes —
// real-time factor (how much faster than the radio the chain can
// compute, from the unpaced batch baseline), time-to-first-frame, and
// per-frame lag percentiles against the one-analysis-window SLO — and
// enforces them: a real-time factor below 1.0 or a p95 frame lag of a
// full window means the chain cannot keep up with a real radio, and the
// mode fails. Identity is still enforced (paced streams byte-identical
// to unpaced batch Track), and the deadline admission path is exercised
// with a deliberately infeasible submission that must fail typed.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"wivi"
)

type pacedSample struct {
	ttff time.Duration
	lags []time.Duration
	err  error
}

// runPacedMode benches batch paced streams against trackDur-second
// captures and fills a benchReport.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runPacedMode(out io.Writer, batch, workers int, seed int64, trackDur float64) (*benchReport, error) {
	fmt.Fprintf(out, "paced real-time: %d concurrent paced streams x %.1fs capture, %d workers\n",
		batch, trackDur, workers)
	rep := newBenchReport("paced", workers, batch, trackDur)

	build := func(i int, paced bool) (*wivi.Device, error) {
		sc := wivi.NewScene(wivi.SceneOptions{Seed: seed + int64(i)})
		if err := sc.AddWalker(trackDur + 1); err != nil {
			return nil, err
		}
		dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{Paced: paced})
		if err != nil {
			return nil, err
		}
		// Pre-null so the paced span measures the tracking chain, not
		// calibration (nulling is control-plane and unpaced either way).
		if _, err := dev.Null(); err != nil {
			return nil, err
		}
		return dev, nil
	}

	// Unpaced batch baseline on identical scenes: the identity reference
	// AND the compute-margin measurement. real_time_factor = capture
	// span / compute time is how many radios' worth of samples one
	// worker can absorb; >= 1.0 is the precondition for pacing to hold.
	want := make([]*wivi.TrackingResult, batch)
	var computeSum float64
	for i := 0; i < batch; i++ {
		dev, err := build(i, false)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if want[i], err = dev.Track(context.Background(), trackDur); err != nil {
			return nil, fmt.Errorf("baseline scene %d: %w", i, err)
		}
		computeSum += time.Since(t0).Seconds()
	}
	rep.RealTimeFactor = trackDur * float64(batch) / computeSum

	// The paced fleet shares one explicit engine. Paced streams are
	// clock-bound, not CPU-bound, so the pool oversubscribes cores
	// harmlessly: batch streams + one spare worker for batch traffic.
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: batch + 1})
	defer eng.Close()
	ctx := context.Background()

	devices := make([]*wivi.Device, batch)
	for i := range devices {
		var err error
		if devices[i], err = build(i, true); err != nil {
			return nil, err
		}
	}

	// Deadline admission must reject a provably-late paced request with
	// the typed sentinel before any capacity is spent on it.
	if _, err := eng.Submit(ctx, wivi.Request{
		Device:   devices[0],
		Duration: trackDur,
		Stream:   true,
		Deadline: time.Duration(trackDur * 0.5 * float64(time.Second)),
	}); !errors.Is(err, wivi.ErrDeadlineInfeasible) {
		return nil, fmt.Errorf("infeasible paced deadline: got %v, want ErrDeadlineInfeasible", err)
	}
	fmt.Fprintf(out, "  deadline admission: %.1fs deadline on a %.1fs paced capture rejected (ErrDeadlineInfeasible)\n",
		trackDur*0.5, trackDur)

	// The real fleet: every stream gets a generous-but-real deadline.
	deadline := time.Duration((3*trackDur + 30) * float64(time.Second))
	samples := make([]pacedSample, batch)
	var wg sync.WaitGroup
	var window time.Duration
	var windowOnce sync.Once
	start := time.Now()
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			h, err := eng.Submit(ctx, wivi.Request{
				Device:   devices[i],
				Duration: trackDur,
				Stream:   true,
				Deadline: deadline,
			})
			if err != nil {
				samples[i].err = fmt.Errorf("submit %d: %w", i, err)
				return
			}
			ts, err := h.Stream(ctx)
			if err != nil {
				samples[i].err = fmt.Errorf("stream %d: %w", i, err)
				return
			}
			windowOnce.Do(func() { window = ts.WindowDuration() })
			first := true
			for fr := range ts.Frames() {
				if first {
					samples[i].ttff = time.Since(t0)
					first = false
				}
				samples[i].lags = append(samples[i].lags, fr.Lag)
			}
			res, err := h.Wait(ctx)
			if err != nil {
				samples[i].err = fmt.Errorf("wait %d: %w", i, err)
				return
			}
			if !res.Tracking.Equal(want[i]) {
				samples[i].err = fmt.Errorf("scene %d: paced streamed result differs from unpaced batch", i)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var allLags []time.Duration
	var ttffSum time.Duration
	for i := range samples {
		if samples[i].err != nil {
			return nil, samples[i].err
		}
		if len(samples[i].lags) != want[i].NumFrames() {
			return nil, fmt.Errorf("scene %d: %d frames streamed, batch has %d",
				i, len(samples[i].lags), want[i].NumFrames())
		}
		allLags = append(allLags, samples[i].lags...)
		ttffSum += samples[i].ttff
	}
	rep.Identity = true
	rep.ElapsedS = elapsed.Seconds()
	rep.ScenesPerSec = float64(batch) / elapsed.Seconds()
	rep.TTFFMs = ms(ttffSum) / float64(batch)
	rep.FrameLagP50Ms = percentileMs(allLags, 50)
	rep.FrameLagP95Ms = percentileMs(allLags, 95)
	rep.FrameLagP99Ms = percentileMs(allLags, 99)
	rep.WindowMs = ms(window)
	rep.Engine = snapshotEngine(eng.Stats())

	fmt.Fprintf(out, "  real-time factor: %.2fx (unpaced compute %.0fms per %.1fs capture)\n",
		rep.RealTimeFactor, computeSum/float64(batch)*1e3, trackDur)
	fmt.Fprintf(out, "  %d paced streams in %.2fs (capture span %.1fs); time-to-first-frame %.1fms mean\n",
		batch, elapsed.Seconds(), trackDur, rep.TTFFMs)
	fmt.Fprintf(out, "  frame lag: p50 %.2fms  p95 %.2fms  p99 %.2fms over %d frames (SLO window %.0fms)\n",
		rep.FrameLagP50Ms, rep.FrameLagP95Ms, rep.FrameLagP99Ms, len(allLags), rep.WindowMs)
	fmt.Fprintf(out, "  identity: %d paced streams byte-identical to unpaced batch Track\n", batch)

	// The SLOs this mode exists to enforce.
	if rep.RealTimeFactor < 1.0 {
		return nil, fmt.Errorf("real-time factor %.2f < 1.0: the chain cannot keep up with the radio",
			rep.RealTimeFactor)
	}
	if p95 := rep.FrameLagP95Ms; p95 >= rep.WindowMs {
		return nil, fmt.Errorf("p95 frame lag %.1fms >= one analysis window (%.0fms): streaming falls behind real time",
			p95, rep.WindowMs)
	}
	// A paced capture cannot finish before the radio does.
	if elapsed.Seconds() < trackDur {
		return nil, fmt.Errorf("paced run finished in %.2fs < %.1fs capture span — pacing is not real-time",
			elapsed.Seconds(), trackDur)
	}
	return rep, nil
}
