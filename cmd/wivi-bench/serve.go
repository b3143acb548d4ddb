package main

// Serve mode (-serve): the wivi-serve load generator. It drives the
// HTTP tier over localhost — against an external daemon (-addr) or an
// in-process server it spins up itself — with a mix of batch and
// streaming requests, and reports requests-per-second-at-SLO, where the
// SLO is one capture duration of wall clock: a tracking service is
// keeping up exactly when a request completes faster than the motion it
// images. Before loading, it re-proves the wire-identity invariant by
// streaming the same request twice and comparing every spectrum value
// bitwise across the serialize/deserialize cycle.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"wivi"
	"wivi/internal/pool"
	"wivi/internal/serve"
)

type serveSample struct {
	stream  bool
	latency time.Duration
	queueMs float64
	err     error
}

// runServeMode drives 2*batch requests (half batch, half streaming) at
// the given client concurrency and aggregates wire-level figures.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runServeMode(out io.Writer, batch, workers int, seed int64, trackDur float64, addr string) (*benchReport, error) {
	rep := newBenchReport("serve", workers, 2*batch, trackDur)
	ctx := context.Background()

	// No -addr: spin up the served stack in-process on a loopback port —
	// a one-tenant pool at its default budget, whose replica pair gives
	// the wire-identity check below a bit-identical pair to compare.
	if addr == "" {
		router := pool.NewRouter(pool.Options{Devices: replicaFactory(seed, trackDur, "")})
		defer router.Close()
		base, stop, err := listenInProcess(router)
		if err != nil {
			return nil, err
		}
		defer stop()
		addr = base
		fmt.Fprintf(out, "serve mode: in-process wivi-serve on %s\n", addr)
	} else {
		fmt.Fprintf(out, "serve mode: driving external daemon at %s\n", addr)
	}

	client := &serve.Client{BaseURL: addr}
	devs, err := client.Devices(ctx)
	if err != nil {
		return nil, fmt.Errorf("discovering devices: %w", err)
	}
	if len(devs.Devices) == 0 {
		return nil, fmt.Errorf("server at %s registers no devices", addr)
	}
	if devs.MaxDurationS > 0 && trackDur > devs.MaxDurationS {
		trackDur = devs.MaxDurationS
		rep.TrackDurationS = trackDur
		fmt.Fprintf(out, "  capture clamped to the server cap: %g s\n", trackDur)
	}
	// The tenant admits at most max_streams concurrent streams and
	// answers any more with 429, so the clients never hold more open.
	st, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading the tenant budget: %w", err)
	}
	maxStreams := st.Pool.Tenants[st.Pool.DefaultTenant].Budget.MaxStreams
	if maxStreams < 1 {
		return nil, fmt.Errorf("server at %s reports no stream budget for tenant %q", addr, st.Pool.DefaultTenant)
	}
	streamSlots := make(chan struct{}, maxStreams)

	// Wire identity: two identically-seeded replica devices capture
	// bit-identical data (wivi-serve registers replicas; fresh same-seed
	// devices are the library's identity baseline), so streaming one
	// request against each must decode to bit-identical frames —
	// determinism and JSON float64 round-tripping proven over the wire
	// before any load figures. A single-device server can't offer a
	// bit-identical pair, so the check is skipped there.
	if len(devs.Devices) >= 2 {
		first, err := collectStream(ctx, client, devs.Devices[0], trackDur)
		if err != nil {
			return nil, fmt.Errorf("identity stream on %s: %w", devs.Devices[0], err)
		}
		second, err := collectStream(ctx, client, devs.Devices[1], trackDur)
		if err != nil {
			return nil, fmt.Errorf("identity stream on %s: %w", devs.Devices[1], err)
		}
		rep.Identity = framesIdentical(first, second)
		if !rep.Identity {
			return rep, fmt.Errorf("wire identity violated: streams of replica devices %s and %s differ",
				devs.Devices[0], devs.Devices[1])
		}
		fmt.Fprintf(out, "  wire identity: %d frames bit-identical across replica streams\n", len(first))
	} else {
		fmt.Fprintf(out, "  wire identity: skipped (server registers a single device; need two replicas)\n")
	}

	// Load phase: 2*batch requests, alternating batch/stream, fanned
	// out over `workers` client goroutines round-robin across devices.
	total := 2 * batch
	slo := time.Duration(trackDur * float64(time.Second))
	jobs := make(chan int)
	samples := make([]serveSample, total)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				req := serve.TrackRequest{
					Device:    devs.Devices[i%len(devs.Devices)],
					DurationS: trackDur,
				}
				stream := i%2 == 1
				if stream {
					streamSlots <- struct{}{}
				}
				t0 := time.Now()
				var queueMs float64
				var err error
				if stream {
					frames, serr := collectStream(ctx, client, req.Device, trackDur)
					<-streamSlots
					if serr == nil && len(frames) == 0 {
						serr = fmt.Errorf("stream returned no frames")
					}
					err = serr
				} else {
					var res *serve.TrackResponse
					res, err = client.Track(ctx, req)
					if err == nil {
						queueMs = res.QueueWaitMs
					}
				}
				samples[i] = serveSample{stream: stream, latency: time.Since(t0), queueMs: queueMs, err: err}
			}
		}()
	}
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	rep.ElapsedS = elapsed.Seconds()

	// Aggregate: throughput, SLO attainment, latency percentiles.
	var lats []time.Duration
	okAtSLO := 0
	perMode := map[string]*modeFigures{"batch": {}, "stream": {}}
	modeLat := map[string]time.Duration{}
	for _, s := range samples {
		if s.err != nil {
			return rep, fmt.Errorf("load request failed: %w", s.err)
		}
		lats = append(lats, s.latency)
		if s.latency <= slo {
			okAtSLO++
		}
		key := "batch"
		if s.stream {
			key = "stream"
		}
		perMode[key].Requests++
		perMode[key].QueueWaitMeanMs += s.queueMs
		modeLat[key] += s.latency
	}
	for key, m := range perMode {
		if m.Requests == 0 {
			continue
		}
		m.RequestsPerSec = float64(m.Requests) / elapsed.Seconds()
		m.QueueWaitMeanMs /= float64(m.Requests)
		m.LatencyMeanMs = ms(modeLat[key] / time.Duration(m.Requests))
	}
	rep.PerMode = map[string]modeFigures{"batch": *perMode["batch"], "stream": *perMode["stream"]}
	rep.RequestsPerSec = float64(total) / elapsed.Seconds()
	rep.RequestsAtSLOPerSec = float64(okAtSLO) / elapsed.Seconds()
	rep.SLOOkFraction = float64(okAtSLO) / float64(total)
	rep.RequestP50Ms = percentileMs(lats, 50)
	rep.RequestP95Ms = percentileMs(lats, 95)
	rep.RequestP99Ms = percentileMs(lats, 99)

	// The served engine's own view, over the same wire it serves.
	if st, err = client.Stats(ctx); err == nil {
		rep.Engine = snapshotEngine(st.Engine)
	} else {
		fmt.Fprintf(out, "  (stats endpoint unavailable: %v)\n", err)
	}

	fmt.Fprintf(out, "  %d requests (%d batch + %d stream) in %.2f s at %d client workers\n",
		total, batch, batch, elapsed.Seconds(), workers)
	fmt.Fprintf(out, "  throughput   %.2f req/s, %.2f req/s within SLO (%.0f%% ≤ %v)\n",
		rep.RequestsPerSec, rep.RequestsAtSLOPerSec, 100*rep.SLOOkFraction, slo)
	fmt.Fprintf(out, "  wire latency p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
		rep.RequestP50Ms, rep.RequestP95Ms, rep.RequestP99Ms)
	return rep, nil
}

// runServeTenantsMode is the noisy-neighbor fault-injection suite: it
// spins up an in-process multi-tenant pool behind internal/serve,
// deliberately saturates tenant t0 (tiny budget, paced devices, two
// concurrent streams) until the router answers with typed 429
// "tenant_saturated", and concurrently drives every other tenant's load
// to prove their streams keep meeting the frame-lag SLO. Per-tenant
// figures land in the report's tenants map; tenant_isolation is the
// verdict CI gates on.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runServeTenantsMode(out io.Writer, batch, workers int, seed int64, trackDur float64, tenants int) (*benchReport, error) {
	if tenants < 2 {
		return nil, fmt.Errorf("-tenants needs at least 2 tenants (the noisy tenant plus victims), got %d", tenants)
	}
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	noisy, victims := names[0], names[1:]
	rep := newBenchReport("serve", workers, len(victims)*batch+2, trackDur)
	ctx := context.Background()

	// Per-tenant replica fleets. The noisy tenant's replicas are paced —
	// its captures consume real wall clock, which is what lets two
	// concurrent streams pin it at its budget for a deterministic
	// saturation window.
	//
	// The noisy tenant admits exactly two requests (maxInflight =
	// Workers + QueueDepth = 2); victims get the full -workers budget.
	// Two streams therefore saturate t0 without touching anyone else.
	router := pool.NewRouter(pool.Options{
		Budget:  pool.Budget{Workers: workers},
		Budgets: map[string]pool.Budget{noisy: {Workers: 1, QueueDepth: 1, MaxStreams: 2}},
		Tenants: names,
		Devices: replicaFactory(seed, trackDur, noisy),
	})
	defer router.Close()
	addr, stop, err := listenInProcess(router)
	if err != nil {
		return nil, err
	}
	defer stop()
	fmt.Fprintf(out, "serve mode: in-process multi-tenant pool on %s (%d tenants, noisy neighbor %s)\n",
		addr, tenants, noisy)

	clients := make(map[string]*serve.Client, tenants)
	for _, n := range names {
		clients[n] = &serve.Client{BaseURL: addr, Tenant: n}
	}

	// Wire identity per victim tenant: each tenant's replicas must
	// stream bit-identical spectra across the serialize/deserialize
	// cycle — determinism holds inside every tenant's fleet.
	for _, v := range victims {
		first, res, err := collectStreamResult(ctx, clients[v], "dev0", trackDur)
		if err != nil {
			return nil, fmt.Errorf("identity stream on %s/dev0: %w", v, err)
		}
		second, _, err := collectStreamResult(ctx, clients[v], "dev1", trackDur)
		if err != nil {
			return nil, fmt.Errorf("identity stream on %s/dev1: %w", v, err)
		}
		if !framesIdentical(first, second) {
			return rep, fmt.Errorf("wire identity violated: tenant %s replica streams differ", v)
		}
		if rep.WindowMs == 0 {
			rep.WindowMs = res.WindowMs
		}
	}
	rep.Identity = true
	fmt.Fprintf(out, "  wire identity: replica streams bit-identical on %d victim tenants\n", len(victims))

	type reqSample struct {
		stream  bool
		latency time.Duration
		lags    []time.Duration
		err     error
	}
	slo := time.Duration(trackDur * float64(time.Second))
	// A batch request is at SLO when it finishes within one capture
	// duration; a stream when its p95 frame lag stays under one window
	// (the paced-mode SLO — a live stream is keeping up exactly when
	// frames emerge at the radio's cadence).
	atSLO := func(s reqSample) bool {
		if s.err != nil {
			return false
		}
		if s.stream {
			return len(s.lags) > 0 && percentileMs(s.lags, 95) < rep.WindowMs
		}
		return s.latency <= slo
	}
	start := time.Now()

	// Saturate: two paced streams pin the noisy tenant at its budget.
	noisySamples := make([]reqSample, 2)
	var noisyWG sync.WaitGroup
	for i, dev := range []string{"dev0", "dev1"} {
		noisyWG.Add(1)
		go func(i int, dev string) {
			defer noisyWG.Done()
			t0 := time.Now()
			frames, _, err := collectStreamResult(ctx, clients[noisy], dev, trackDur)
			if err == nil && len(frames) == 0 {
				err = fmt.Errorf("stream returned no frames")
			}
			noisySamples[i] = reqSample{stream: true, latency: time.Since(t0), lags: frameLags(frames), err: err}
		}(i, dev)
	}
	admitDeadline := time.Now().Add(10*time.Second + 2*slo)
	for {
		st, err := clients[noisy].Stats(ctx)
		if err != nil {
			return rep, fmt.Errorf("polling noisy-tenant stats: %w", err)
		}
		if st.Pool.Tenants[noisy].InFlight >= 2 {
			break
		}
		if time.Now().After(admitDeadline) {
			return rep, fmt.Errorf("noisy tenant %s never reached its budget", noisy)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Victim load, concurrent with the saturation window: each victim
	// tenant runs -batch requests, alternating batch and stream.
	victimSamples := make(map[string][]reqSample, len(victims))
	victimElapsed := make(map[string]time.Duration, len(victims))
	var victimWG sync.WaitGroup
	var vmu sync.Mutex
	for _, v := range victims {
		victimWG.Add(1)
		go func(v string) {
			defer victimWG.Done()
			samples := make([]reqSample, batch)
			t0 := time.Now()
			for i := range samples {
				dev := []string{"dev0", "dev1"}[i%2]
				r0 := time.Now()
				if i%2 == 1 {
					frames, _, serr := collectStreamResult(ctx, clients[v], dev, trackDur)
					if serr == nil && len(frames) == 0 {
						serr = fmt.Errorf("stream returned no frames")
					}
					samples[i] = reqSample{stream: true, latency: time.Since(r0), lags: frameLags(frames), err: serr}
				} else {
					_, terr := clients[v].Track(ctx, serve.TrackRequest{Device: dev, DurationS: trackDur})
					samples[i] = reqSample{latency: time.Since(r0), err: terr}
				}
			}
			vmu.Lock()
			victimSamples[v] = samples
			victimElapsed[v] = time.Since(t0)
			vmu.Unlock()
		}(v)
	}

	// Fault injection: while the noisy tenant sits at its budget, every
	// probe must come back as the typed 429 — never an untyped error,
	// never a stall, and never at another tenant's expense.
	rejected429 := 0
	for i := 0; i < 5; i++ {
		_, perr := clients[noisy].Track(ctx, serve.TrackRequest{Device: "dev0", DurationS: trackDur})
		if perr == nil {
			break // a slot freed — the saturation window ended
		}
		var apiErr *serve.APIError
		if !errors.As(perr, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != serve.CodeTenantSaturated {
			return rep, fmt.Errorf("saturated-tenant probe drew the wrong rejection: %v", perr)
		}
		rejected429++
		time.Sleep(20 * time.Millisecond)
	}
	if rejected429 == 0 {
		return rep, fmt.Errorf("noisy tenant %s at budget was never refused with %s", noisy, serve.CodeTenantSaturated)
	}

	victimWG.Wait()
	noisyWG.Wait()
	elapsed := time.Since(start)
	rep.ElapsedS = elapsed.Seconds()

	// Per-tenant figures plus the isolation verdict.
	full, err := (&serve.Client{BaseURL: addr}).Stats(ctx)
	if err != nil {
		return rep, fmt.Errorf("reading pool stats: %w", err)
	}
	tenantFigure := func(name string, samples []reqSample, span time.Duration, saturated bool) (tenantFigures, error) {
		var lats, lags []time.Duration
		ok := 0
		for _, s := range samples {
			if s.err != nil {
				return tenantFigures{}, fmt.Errorf("tenant %s request failed: %w", name, s.err)
			}
			lats = append(lats, s.latency)
			lags = append(lags, s.lags...)
			if atSLO(s) {
				ok++
			}
		}
		f := tenantFigures{
			Requests:            len(samples),
			RequestsPerSec:      float64(len(samples)) / span.Seconds(),
			RequestsAtSLOPerSec: float64(ok) / span.Seconds(),
			SLOOkFraction:       float64(ok) / float64(len(samples)),
			RequestP95Ms:        percentileMs(lats, 95),
			FrameLagP95Ms:       percentileMs(lags, 95),
			Saturated:           saturated,
			Rejected:            full.Pool.Tenants[name].Rejected,
		}
		return f, nil
	}
	rep.Tenants = make(map[string]tenantFigures, tenants)
	var noisySpan time.Duration
	for _, s := range noisySamples {
		if s.latency > noisySpan {
			noisySpan = s.latency
		}
	}
	if rep.Tenants[noisy], err = tenantFigure(noisy, noisySamples, noisySpan, true); err != nil {
		return rep, err
	}
	isolation := rep.Identity && rep.Tenants[noisy].RequestsAtSLOPerSec > 0
	var all []reqSample
	all = append(all, noisySamples...)
	for _, v := range victims {
		if rep.Tenants[v], err = tenantFigure(v, victimSamples[v], victimElapsed[v], false); err != nil {
			return rep, err
		}
		if rep.Tenants[v].RequestsAtSLOPerSec <= 0 {
			isolation = false
		}
		for _, s := range victimSamples[v] {
			// The acceptance bar: the victim's *streams* hold p95 frame
			// lag under one window while the neighbor is saturated.
			if s.stream && !atSLO(s) {
				isolation = false
			}
		}
		all = append(all, victimSamples[v]...)
	}
	rep.TenantIsolation = isolation

	var lats []time.Duration
	okAtSLO := 0
	for _, s := range all {
		lats = append(lats, s.latency)
		if atSLO(s) {
			okAtSLO++
		}
	}
	rep.RequestsPerSec = float64(len(all)) / elapsed.Seconds()
	rep.RequestsAtSLOPerSec = float64(okAtSLO) / elapsed.Seconds()
	rep.SLOOkFraction = float64(okAtSLO) / float64(len(all))
	rep.RequestP50Ms = percentileMs(lats, 50)
	rep.RequestP95Ms = percentileMs(lats, 95)
	rep.RequestP99Ms = percentileMs(lats, 99)
	if st, err := clients[victims[0]].Stats(ctx); err == nil {
		rep.Engine = snapshotEngine(st.Engine)
	}

	fmt.Fprintf(out, "  noisy neighbor: %s held at budget, drew %d typed 429s (router counted %d)\n",
		noisy, rejected429, rep.Tenants[noisy].Rejected)
	for _, n := range names {
		f := rep.Tenants[n]
		fmt.Fprintf(out, "  tenant %-4s %d requests, %.2f req/s (%.2f at SLO, %.0f%%), p95 %.1f ms, lag p95 %.2f ms, rejected %d\n",
			n, f.Requests, f.RequestsPerSec, f.RequestsAtSLOPerSec, 100*f.SLOOkFraction,
			f.RequestP95Ms, f.FrameLagP95Ms, f.Rejected)
	}
	fmt.Fprintf(out, "  tenant isolation: %v (victim streams held p95 lag < %.1f ms window under saturation)\n",
		rep.TenantIsolation, rep.WindowMs)
	if !rep.TenantIsolation {
		return rep, fmt.Errorf("tenant isolation violated: a victim tenant missed its SLO while %s was saturated", noisy)
	}
	return rep, nil
}

// replicaFactory builds each tenant two identically-seeded one-walker
// replicas, dev0 and dev1. A fresh same-seed device captures
// bit-identical data, so every tenant offers the wire-identity check a
// pair to compare. The paced tenant's replicas deliver samples at the
// radio's cadence.
func replicaFactory(seed int64, trackDur float64, paced string) func(string) (map[string]*wivi.Device, error) {
	return func(tenant string) (map[string]*wivi.Device, error) {
		registry := make(map[string]*wivi.Device, 2)
		for _, name := range []string{"dev0", "dev1"} {
			sc := wivi.NewScene(wivi.SceneOptions{Seed: seed})
			if err := sc.AddWalker(trackDur + 1); err != nil {
				return nil, err
			}
			dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{Paced: tenant == paced})
			if err != nil {
				return nil, err
			}
			registry[name] = dev
		}
		return registry, nil
	}
}

// listenInProcess serves router through internal/serve on a loopback
// port and returns the base URL and the listener's stop function.
func listenInProcess(router *pool.Router) (string, func(), error) {
	srv, err := serve.New(serve.Config{Pool: router})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// collectStream runs one streamed request to completion and returns its
// frames.
func collectStream(ctx context.Context, client *serve.Client, device string, trackDur float64) ([]serve.Frame, error) {
	frames, _, err := collectStreamResult(ctx, client, device, trackDur)
	return frames, err
}

// collectStreamResult is collectStream plus the terminal result event.
func collectStreamResult(ctx context.Context, client *serve.Client, device string, trackDur float64) ([]serve.Frame, *serve.TrackResponse, error) {
	cs, err := client.TrackStream(ctx, serve.TrackRequest{Device: device, DurationS: trackDur})
	if err != nil {
		return nil, nil, err
	}
	defer cs.Close()
	var frames []serve.Frame
	for {
		fr, ok := cs.Next()
		if !ok {
			break
		}
		frames = append(frames, fr)
	}
	if err := cs.Err(); err != nil {
		return nil, nil, err
	}
	if cs.Result() == nil {
		return nil, nil, fmt.Errorf("stream ended without a result event")
	}
	return frames, cs.Result(), nil
}

// frameLags extracts each streamed frame's emission lag.
func frameLags(frames []serve.Frame) []time.Duration {
	lags := make([]time.Duration, len(frames))
	for i, fr := range frames {
		lags[i] = time.Duration(fr.LagMs * float64(time.Millisecond))
	}
	return lags
}

// framesIdentical compares two streamed captures bitwise (indices,
// times, every spectrum value). Lag is wall-clock and excluded.
func framesIdentical(a, b []serve.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].TimeS) != math.Float64bits(b[i].TimeS) ||
			len(a[i].Power) != len(b[i].Power) {
			return false
		}
		for k := range a[i].Power {
			if math.Float64bits(a[i].Power[k]) != math.Float64bits(b[i].Power[k]) {
				return false
			}
		}
	}
	return true
}
