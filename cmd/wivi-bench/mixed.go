package main

// Mixed mode: the Engine service API under the traffic shape it was
// designed for, concurrent track, gesture and streaming requests
// sharing one explicit pool. Reports per-kind completion counts, mean
// queue wait and end-to-end latency, the engine's own Stats() counters,
// and re-verifies the correctness invariants under mixing: track and
// streamed images byte-identical to an independently computed baseline,
// gesture messages decoded exactly.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"wivi"
	"wivi/internal/benchreport"
)

// runMixed submits -batch requests of each kind against one explicit
// engine and aggregates per-kind figures.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runMixed(out io.Writer, c config) (*benchreport.Report, error) {
	n := c.batch
	rep := newBenchReport("mixed", c.workers, n, c.trackDur)
	fmt.Fprintf(out, "mixed workload: %d track + %d gesture + %d stream requests, %d workers\n", n, n, n, c.workers)

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

	// Track and stream requests run on scenes seeded apart; each gets an
	// identity baseline on fresh identical devices, computed before the
	// mixed run: mixing traffic must not change the physics.
	var devs [2][]*wivi.Device
	var want [2][]*wivi.TrackingResult
	for k, seed := range []int64{c.seed, c.seed + 1000} {
		base, err := walkers(seed, n, c.trackDur, wivi.DeviceOptions{})
		if err != nil {
			return nil, err
		}
		if want[k], _, err = baseline(base, c.trackDur); err != nil {
			return nil, err
		}
		if devs[k], err = walkers(seed, n, c.trackDur, wivi.DeviceOptions{}); err != nil {
			return nil, err
		}
	}

	eng := wivi.NewEngine(wivi.EngineOptions{Workers: c.workers})
	defer eng.Close()
	ctx := context.Background()
	samples := make(chan sample, 3*n) // one per request
	var wg sync.WaitGroup
	start := time.Now()

	submit := func(kind string, req wivi.Request, check func(*wivi.Result) error) {
		defer wg.Done()
		t0 := time.Now()
		h, err := eng.Submit(ctx, req)
		if err != nil {
			samples <- sample{kind: kind, err: fmt.Errorf("%s submit: %w", kind, err)}
			return
		}
		if req.Stream {
			ts, err := h.Stream(ctx)
			if err != nil {
				samples <- sample{kind: kind, err: fmt.Errorf("stream start: %w", err)}
				return
			}
			if len(drain(ts, t0).lags) == 0 {
				samples <- sample{kind: kind, err: fmt.Errorf("stream emitted no frames: %v", ts.Err())}
				return
			}
		}
		res, err := h.Wait(ctx)
		if err == nil {
			err = check(res)
		}
		s := sample{kind: kind, latency: time.Since(t0), err: err}
		if res != nil {
			s.queue = res.QueueWait
		}
		samples <- s
	}

	for i := 0; i < n; i++ {
		gdev, gdur, err := newGestureDevice()
		if err != nil {
			return nil, err
		}
		wg.Add(3)
		go submit("track", wivi.Request{Device: devs[0][i], Duration: c.trackDur}, func(r *wivi.Result) error {
			if !r.Tracking.Equal(want[0][i]) {
				return fmt.Errorf("track %d: mixed-engine image differs from baseline", i)
			}
			return nil
		})
		go submit("gesture", wivi.Request{Device: gdev, Duration: gdur, Mode: wivi.Gesture}, func(r *wivi.Result) error {
			if r.Message == nil || r.Message.String() != "01" {
				return fmt.Errorf("gesture %d: decoded %v, want 01", i, r.Message)
			}
			return nil
		})
		go submit("stream", wivi.Request{Device: devs[1][i], Duration: c.trackDur, Stream: true}, func(r *wivi.Result) error {
			if !r.Tracking.Equal(want[1][i]) {
				return fmt.Errorf("stream %d: streamed image differs from batch baseline", i)
			}
			return nil
		})
	}
	wg.Wait()
	close(samples)
	elapsed := time.Since(start)

	var all []sample
	for s := range samples {
		all = append(all, s)
	}
	var err error
	if rep.PerMode, err = perMode(all, elapsed); err != nil {
		return nil, err
	}
	for _, kind := range []string{"track", "gesture", "stream"} {
		m := rep.PerMode[kind]
		if m.Requests != n {
			return nil, fmt.Errorf("%s: %d of %d requests completed", kind, m.Requests, n)
		}
		fmt.Fprintf(out, "  %-8s %d requests, %6.2f req/s, queue wait %8.2fms mean, latency %8.2fms mean\n",
			kind+":", m.Requests, m.RequestsPerSec, m.QueueWaitMeanMs, m.LatencyMeanMs)
	}
	// Stream counters settle one scheduling beat after the final frame;
	// give them that beat before asserting.
	st := eng.Stats()
	for deadline := time.Now().Add(2 * time.Second); st.Completed != int64(3*n) && time.Now().Before(deadline); st = eng.Stats() {
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(out, "  engine:  %d completed, %d failed, %d frames (%.1f frames/s), queued %d, in-flight %d\n",
		st.Completed, st.Failed, st.Frames, st.FramesPerSecond, st.Queued, st.InFlight)
	fmt.Fprintf(out, "  latency: queue wait p50 %.2fms p95 %.2fms p99 %.2fms; end-to-end p50 %.2fms p95 %.2fms p99 %.2fms\n",
		ms(st.QueueWait.P50), ms(st.QueueWait.P95), ms(st.QueueWait.P99),
		ms(st.EndToEnd.P50), ms(st.EndToEnd.P95), ms(st.EndToEnd.P99))
	fmt.Fprintf(out, "  identity checks: %d track == baseline, %d stream == batch, %d messages == \"01\" in %.2fs\n",
		n, n, n, elapsed.Seconds())
	if st.Completed != int64(3*n) {
		return nil, fmt.Errorf("engine stats report %d completed, want %d", st.Completed, 3*n)
	}
	rep.Identity = true
	rep.ElapsedS = elapsed.Seconds()
	rep.ScenesPerSec = float64(3*n) / elapsed.Seconds()
	rep.Engine = snapshotEngine(st)
	return rep, nil
}
