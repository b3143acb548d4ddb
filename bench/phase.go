package main

// Measurement. A run's measured time is split into parts. Each part sets
// the workload up afresh and times the set-up, runs its share of the
// schedule, and tears the set-up down. The host is probed before the
// first part and after every part (calib.go), so each part has a probe
// on either side and each set-up one just before it.

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"wivi"
	"wivi/internal/core"
)

// part is the record of one measured part.
type part struct {
	setup      time.Duration
	samples    []sample
	start, end time.Time
	cpu        time.Duration
	mallocs    uint64
	// before and after are the host-speed probes on either side.
	before, after float64
	// engine is the engine's own stats at the end of the part, and
	// rejected the pool's typed 429 count.
	engine   wivi.EngineStats
	rejected int64
}

// runParts measures every part of the workload. tracer returns the tier
// trace to run part n under, or nil to run it untraced.
func runParts(ctx context.Context, w *workload, seed int64, clk core.Clock, tracer func(n int) *tierTrace) ([]*part, error) {
	speed := hostSpeed(ctx, clk)
	ps := make([]*part, 0, parts)
	for n := 0; n < parts; n++ {
		tr := tracer(n)
		t0 := clk.Now()
		e, err := setup(ctx, w, seed, clk, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTime := clk.Now().Sub(t0)
		p := measure(ctx, w, seed, n, e, clk, tr)
		e.close()
		// Collect the torn-down set-up now, so that the next part's peak
		// memory and probe do not depend on when the collector would have.
		runtime.GC()
		p.setup, p.before = setupTime, speed
		speed = hostSpeed(ctx, clk)
		p.after = speed
		ps = append(ps, p)
	}
	return ps, nil
}

// measure runs part n of the workload's schedule against e while
// counting process CPU time and heap allocations. With tr set, the
// engine's stats are polled throughout.
func measure(ctx context.Context, w *workload, seed int64, n int, e *env, clk core.Clock, tr *tierTrace) *part {
	var stopPoll func()
	if tr != nil {
		stopPoll = tr.poll(e.stats, e.workers)
	}
	runtime.GC()
	p := &part{}
	cpu0 := cpuTime()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.start = clk.Now()
	if w.arrivals != nil {
		p.samples = runOpen(ctx, clk, p.start, w.arrivals(seed, n), w.clients, e.do)
	} else {
		var deadline time.Time
		if w.untilDeadline {
			deadline = p.start.Add(time.Duration(w.partS * float64(time.Second)))
		}
		p.samples = runClosed(ctx, clk, p.start, deadline, w.clients, w.next, e.do)
	}
	p.end = p.start
	for _, s := range p.samples {
		if s.end.After(p.end) {
			p.end = s.end
		}
	}
	runtime.ReadMemStats(&m1)
	p.cpu = cpuTime() - cpu0
	p.mallocs = m1.Mallocs - m0.Mallocs
	if stopPoll != nil {
		stopPoll()
	}
	p.engine = e.stats()
	p.rejected = e.rejected()
	return p
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// good returns the samples that succeeded.
func good(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.code == "" {
			out = append(out, s)
		}
	}
	return out
}

// rates computes the raw throughput and cost figures of one part.
func (p *part) rates() map[string]float64 {
	frames, done := 0, 0
	for _, s := range good(p.samples) {
		done++
		frames += s.frames
	}
	window := p.end.Sub(p.start).Seconds()
	return map[string]float64{
		"frames_per_s":     float64(frames) / window,
		"requests_per_s":   float64(done) / window,
		"cpu_ms_per_frame": ms(p.cpu) / float64(frames),
		"allocs_per_frame": float64(p.mallocs) / float64(frames),
		"setup_s":          p.setup.Seconds(),
		"speed_before":     p.before,
		"speed_after":      p.after,
	}
}

// e2e computes the run's end-to-end metrics from its parts. Throughput,
// cost and set-up time are medians over the parts, so one part spoiled
// by a burst of contention on a shared host does not move them; the
// request latency percentile pools every part's samples, so that it
// rests on as many samples as the run has; memory is the process's
// peak.
//
// With scaled set, the figures the CPU's speed sets are scaled to the
// nominal host speed by the part's probes (calib.go): CPU time per
// frame, request latency and set-up time, and throughput only in a
// closed loop, because an open loop's schedule sets it otherwise.
// Nothing is scaled on paced radios: the radio sets the pace there, and
// the CPU idles between frames, so a probe between parts reads a host
// the frames did not run on. Counts and memory are never scaled.
func e2e(w *workload, ps []*part, scaled bool) map[string]float64 {
	perPart := map[string][]float64{}
	var lat []float64
	for _, p := range ps {
		run, setup := 1.0, 1.0
		if scaled && !w.paced() {
			run, setup = timeScale((p.before+p.after)/2), timeScale(p.before)
		}
		rate := run
		if !w.closedLoop() {
			rate = 1
		}
		r := p.rates()
		for k, v := range map[string]float64{
			"frames_per_s":     r["frames_per_s"] / rate,
			"requests_per_s":   r["requests_per_s"] / rate,
			"cpu_ms_per_frame": r["cpu_ms_per_frame"] * run,
			"allocs_per_frame": r["allocs_per_frame"],
			"setup_s":          r["setup_s"] * setup,
		} {
			perPart[k] = append(perPart[k], v)
		}
		for _, s := range good(p.samples) {
			lat = append(lat, ms(s.latency())*run)
		}
	}
	out := map[string]float64{}
	for k, v := range perPart {
		out[k] = median(v)
	}
	out["request_p50_ms"] = percentile(lat, 50)
	out["max_rss_mb"] = maxRSSMB()
	return out
}

// loadLayers computes the load generator's and the engine's per-layer
// metrics of traced parts.
func loadLayers(parts []*part, tr *tierTrace) map[string]float64 {
	var delay, queue, engineP95 []float64
	for _, p := range parts {
		for _, s := range p.samples {
			delay = append(delay, ms(s.sent.Sub(s.due)))
		}
		for _, s := range good(p.samples) {
			queue = append(queue, s.queueMs)
		}
		engineP95 = append(engineP95, ms(p.engine.EndToEnd.P95))
	}
	return map[string]float64{
		"loadgen.send_delay_ms_p95":  percentile(delay, 95),
		"pipeline.queue_wait_ms_p50": percentile(queue, 50),
		"pipeline.queue_wait_ms_p95": percentile(queue, 95),
		"pipeline.busy_frac":         mean(tr.busy),
		"pipeline.e2e_ms_p95":        median(engineP95),
	}
}

// serveLayers computes the serve tier's per-layer metrics over HTTP:
// from the requests of parts traced by req, handler time and wire time
// (client latency minus handler time, matched by request id); from the
// streams traced by frame, per-frame write, flush and bytes, and the
// encode and client-decode replays.
func serveLayers(ctx context.Context, parts []*part, req, frame *tierTrace) (map[string]float64, error) {
	var handler, wire []float64
	var rejected int64
	for _, p := range parts {
		for _, s := range good(p.samples) {
			if h, ok := req.handlerTime[s.id]; ok {
				handler = append(handler, ms(h))
				wire = append(wire, ms(s.end.Sub(s.sent)-h))
			}
		}
		rejected += p.rejected
	}
	if len(handler) == 0 || frame.frames == 0 {
		return nil, fmt.Errorf("the traced parts matched no handler timings or streamed no frames")
	}
	enc, err := frame.encodeUsPerFrame()
	if err != nil {
		return nil, err
	}
	dec, err := frame.clientDecodeUsPerFrame(ctx)
	if err != nil {
		return nil, err
	}
	frames := float64(frame.frames)
	return map[string]float64{
		"pool.rejected":                    float64(rejected),
		"pool.device_build_ms":             meanMs(req.builds),
		"serve.handler_ms_p50":             percentile(handler, 50),
		"serve.handler_ms_p95":             percentile(handler, 95),
		"http.wire_ms_p50":                 percentile(wire, 50),
		"serve.write_us_per_frame":         us(frame.frameWrite) / frames,
		"serve.flush_us_per_frame":         us(frame.frameFlush) / frames,
		"serve.bytes_per_frame":            float64(frame.frameBytes) / frames,
		"serve.encode_us_per_frame":        enc,
		"serve.client_decode_us_per_frame": dec,
	}, nil
}

func meanMs(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	return mean(v)
}
