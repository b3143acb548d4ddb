package main

// Paced mode: N concurrent streams on paced devices (samples delivered
// at the radio's SampleT cadence, wall-clock bound like the paper's
// USRP) driven through one explicit engine. It measures the figures
// that matter on the clock the hardware imposes: the real-time factor
// (how much faster than the radio the chain computes, from the unpaced
// batch baseline), time-to-first-frame, and per-frame lag percentiles
// against the one-analysis-window SLO, which gate enforces. Identity is
// still checked (paced streams byte-identical to unpaced batch Track),
// and the deadline admission path is exercised with a deliberately
// infeasible submission that must fail typed.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"wivi"
	"wivi/internal/benchreport"
)

// pacedSample is one paced stream's outcome.
type pacedSample struct {
	frameTimes
	window time.Duration
	err    error
}

// runPaced benches -batch paced streams against -trackdur captures.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runPaced(out io.Writer, c config) (*benchreport.Report, error) {
	fmt.Fprintf(out, "paced real-time: %d concurrent paced streams x %.1fs capture, %d workers\n",
		c.batch, c.trackDur, c.workers)
	rep := newBenchReport("paced", c.workers, c.batch, c.trackDur)

	base, err := walkers(c.seed, c.batch, c.trackDur, wivi.DeviceOptions{})
	if err != nil {
		return nil, err
	}
	devs, err := walkers(c.seed, c.batch, c.trackDur, wivi.DeviceOptions{Paced: true})
	if err != nil {
		return nil, err
	}
	// Pre-null so the timed spans measure the tracking chain, not
	// calibration (nulling is control-plane and unpaced either way).
	for _, d := range append(base, devs...) {
		if _, err := d.Null(); err != nil {
			return nil, err
		}
	}
	// The unpaced baseline is the identity reference AND the compute
	// margin: real_time_factor = capture span / compute time is how many
	// radios' worth of samples one worker can absorb; >= 1.0 is the
	// precondition for pacing to hold.
	want, compute, err := baseline(base, c.trackDur)
	if err != nil {
		return nil, err
	}
	rep.RealTimeFactor = c.trackDur * float64(c.batch) / compute.Seconds()

	// The paced fleet shares one explicit engine. Paced streams are
	// clock-bound, not CPU-bound, so the pool oversubscribes cores
	// harmlessly: one worker per stream plus a spare for batch traffic.
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: c.batch + 1})
	defer eng.Close()
	ctx := context.Background()

	// Deadline admission must reject a provably-late paced request with
	// the typed sentinel before any capacity is spent on it.
	if _, err := eng.Submit(ctx, wivi.Request{
		Device:   devs[0],
		Duration: c.trackDur,
		Stream:   true,
		Deadline: time.Duration(c.trackDur * 0.5 * float64(time.Second)),
	}); !errors.Is(err, wivi.ErrDeadlineInfeasible) {
		return nil, fmt.Errorf("infeasible paced deadline: got %v, want ErrDeadlineInfeasible", err)
	}
	fmt.Fprintf(out, "  deadline admission: %.1fs deadline on a %.1fs paced capture rejected (ErrDeadlineInfeasible)\n",
		c.trackDur*0.5, c.trackDur)

	// The real fleet: every stream gets a generous-but-real deadline.
	deadline := time.Duration((3*c.trackDur + 30) * float64(time.Second))
	samples := make([]pacedSample, c.batch)
	var wg sync.WaitGroup
	start := time.Now()
	for i, dev := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &samples[i]
			t0 := time.Now()
			h, err := eng.Submit(ctx, wivi.Request{Device: dev, Duration: c.trackDur, Stream: true, Deadline: deadline})
			if err != nil {
				s.err = fmt.Errorf("submit %d: %w", i, err)
				return
			}
			ts, err := h.Stream(ctx)
			if err != nil {
				s.err = fmt.Errorf("stream %d: %w", i, err)
				return
			}
			s.window = ts.WindowDuration()
			s.frameTimes = drain(ts, t0)
			res, err := h.Wait(ctx)
			if err != nil {
				s.err = fmt.Errorf("wait %d: %w", i, err)
				return
			}
			if !res.Tracking.Equal(want[i]) {
				s.err = fmt.Errorf("scene %d: paced streamed result differs from unpaced batch", i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lags []time.Duration
	var ttffSum time.Duration
	for i, s := range samples {
		if s.err != nil {
			return nil, s.err
		}
		if len(s.lags) != want[i].NumFrames() {
			return nil, fmt.Errorf("scene %d: %d frames streamed, batch has %d", i, len(s.lags), want[i].NumFrames())
		}
		lags = append(lags, s.lags...)
		ttffSum += s.ttff
	}
	rep.Identity = true
	rep.ElapsedS = elapsed.Seconds()
	rep.ScenesPerSec = float64(c.batch) / elapsed.Seconds()
	rep.TTFFMs = ms(ttffSum) / float64(c.batch)
	rep.FrameLagP50Ms = percentileMs(lags, 50)
	rep.FrameLagP95Ms = percentileMs(lags, 95)
	rep.FrameLagP99Ms = percentileMs(lags, 99)
	rep.WindowMs = ms(samples[0].window)
	rep.Engine = snapshotEngine(eng.Stats())

	fmt.Fprintf(out, "  real-time factor: %.2fx (unpaced compute %.0fms per %.1fs capture)\n",
		rep.RealTimeFactor, ms(compute)/float64(c.batch), c.trackDur)
	fmt.Fprintf(out, "  %d paced streams in %.2fs (capture span %.1fs); time-to-first-frame %.1fms mean\n",
		c.batch, elapsed.Seconds(), c.trackDur, rep.TTFFMs)
	fmt.Fprintf(out, "  frame lag: p50 %.2fms  p95 %.2fms  p99 %.2fms over %d frames (SLO window %.0fms)\n",
		rep.FrameLagP50Ms, rep.FrameLagP95Ms, rep.FrameLagP99Ms, len(lags), rep.WindowMs)
	fmt.Fprintf(out, "  identity: %d paced streams byte-identical to unpaced batch Track\n", c.batch)
	return rep, nil
}
