package main

// The HTTP modes. Serve mode is the wivi-serve load generator: it
// drives the HTTP tier over localhost, against an external daemon
// (-addr) or an in-process server it spins up itself, with a mix of
// batch and streaming requests, and reports requests-per-second-at-SLO,
// where the SLO is one capture duration of wall clock: a tracking
// service is keeping up exactly when a request completes faster than
// the motion it images. Before loading, it re-proves the wire-identity
// invariant by streaming the same request on two replica devices and
// comparing every spectrum value bitwise across the serialize /
// deserialize cycle. Tenants mode is the noisy-neighbour suite over an
// in-process two-tenant pool.

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
	"wivi/internal/benchreport"
	"wivi/internal/pool"
	"wivi/internal/serve"
)

// runServe drives 2*batch requests (alternately batch and streaming)
// at -workers client concurrency and aggregates wire-level figures.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runServe(out io.Writer, c config) (*benchreport.Report, error) {
	rep := newBenchReport("serve", c.workers, 2*c.batch, c.trackDur)
	ctx := context.Background()
	addr, trackDur := c.addr, c.trackDur

	// No -addr: serve a one-tenant pool at its default budget in-process,
	// whose replica pair gives the wire-identity check below a
	// bit-identical pair to compare.
	if addr == "" {
		router := pool.NewRouter(pool.Options{Devices: replicaFactory(c.seed, trackDur, "")})
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

	// Wire identity before any load figures. wivi-serve registers
	// identically-seeded replicas; a single-device server offers no
	// pair, so identity stays unproven and gate fails the run.
	if len(devs.Devices) >= 2 {
		if rep.Identity, _, err = wireIdentity(ctx, client, devs.Devices[0], devs.Devices[1], trackDur); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  wire identity: %v across replicas %s and %s\n", rep.Identity, devs.Devices[0], devs.Devices[1])
	} else {
		fmt.Fprintf(out, "  wire identity: unproven (one registered device; it takes two replicas)\n")
	}

	// Load phase: 2*batch requests, alternating batch/stream, fanned
	// out over -workers client goroutines round-robin across devices.
	total := 2 * c.batch
	jobs := make(chan int)
	samples := make([]sample, total)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				stream := i%2 == 1
				if stream {
					streamSlots <- struct{}{}
				}
				samples[i] = request(ctx, client, devs.Devices[i%len(devs.Devices)], trackDur, stream)
				if stream {
					<-streamSlots
				}
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

	slo := time.Duration(trackDur * float64(time.Second))
	f, err := aggregate(samples, elapsed, func(s sample) bool { return s.latency <= slo })
	if err != nil {
		return nil, err
	}
	setRequests(rep, f)
	if rep.PerMode, err = perMode(samples, elapsed); err != nil {
		return nil, err
	}

	// The served engine's own view, over the same wire it serves.
	if st, err = client.Stats(ctx); err == nil {
		rep.Engine = snapshotEngine(st.Engine)
	} else {
		fmt.Fprintf(out, "  (stats endpoint unavailable: %v)\n", err)
	}

	fmt.Fprintf(out, "  %d requests (%d batch + %d stream) in %.2f s at %d client workers\n",
		total, c.batch, c.batch, elapsed.Seconds(), c.workers)
	fmt.Fprintf(out, "  throughput   %.2f req/s, %.2f req/s within SLO (%.0f%% ≤ %v)\n",
		rep.RequestsPerSec, rep.RequestsAtSLOPerSec, 100*rep.SLOOkFraction, slo)
	fmt.Fprintf(out, "  wire latency p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
		rep.RequestP50Ms, rep.RequestP95Ms, rep.RequestP99Ms)
	return rep, nil
}

// runTenants is the noisy-neighbour fault-injection suite: it spins up
// an in-process two-tenant pool behind internal/serve, deliberately
// saturates tenant t0 (tiny budget, paced devices, two concurrent
// streams) until the router answers with typed 429 "tenant_saturated",
// and concurrently drives tenant t1's load to prove its streams keep
// meeting the frame-lag SLO. Per-tenant figures land in the report's
// tenants map; tenant_isolation is the verdict gate checks.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runTenants(out io.Writer, c config) (*benchreport.Report, error) {
	const noisy, victim = "t0", "t1"
	rep := newBenchReport("serve", c.workers, c.batch+2, c.trackDur)
	ctx := context.Background()

	// Per-tenant replica fleets. The noisy tenant's replicas are paced —
	// its captures consume real wall clock, which is what lets two
	// concurrent streams pin it at its budget for a deterministic
	// saturation window.
	//
	// The noisy tenant admits exactly two requests (maxInflight =
	// Workers + QueueDepth = 2); the victim gets the full -workers
	// budget. Two streams therefore saturate t0 without touching t1.
	router := pool.NewRouter(pool.Options{
		Budget:  pool.Budget{Workers: c.workers},
		Budgets: map[string]pool.Budget{noisy: {Workers: 1, QueueDepth: 1, MaxStreams: 2}},
		Tenants: []string{noisy, victim},
		Devices: replicaFactory(c.seed, c.trackDur, noisy),
	})
	defer router.Close()
	addr, stop, err := listenInProcess(router)
	if err != nil {
		return nil, err
	}
	defer stop()
	fmt.Fprintf(out, "serve mode: in-process multi-tenant pool on %s (tenants %s, %s; noisy neighbor %s)\n",
		addr, noisy, victim, noisy)
	noisyClient := &serve.Client{BaseURL: addr, Tenant: noisy}
	victimClient := &serve.Client{BaseURL: addr, Tenant: victim}

	// Wire identity inside the victim's fleet.
	var res *serve.TrackResponse
	if rep.Identity, res, err = wireIdentity(ctx, victimClient, "dev0", "dev1", c.trackDur); err != nil {
		return nil, fmt.Errorf("tenant %s: %w", victim, err)
	}
	rep.WindowMs = res.WindowMs
	fmt.Fprintf(out, "  wire identity: %v over replica streams of tenant %s\n", rep.Identity, victim)

	slo := time.Duration(c.trackDur * float64(time.Second))
	// A batch request is at SLO when it finishes within one capture
	// duration; a stream when its p95 frame lag stays under one window
	// (the paced-mode SLO — a live stream is keeping up exactly when
	// frames emerge at the radio's cadence).
	atSLO := func(s sample) bool {
		if s.kind == "stream" {
			return len(s.lags) > 0 && percentileMs(s.lags, 95) < rep.WindowMs
		}
		return s.latency <= slo
	}
	start := time.Now()

	// Saturate: two paced streams pin the noisy tenant at its budget.
	noisySamples := make([]sample, 2)
	var wg sync.WaitGroup
	for i, dev := range []string{"dev0", "dev1"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			noisySamples[i] = request(ctx, noisyClient, dev, c.trackDur, true)
		}()
	}
	admitDeadline := time.Now().Add(10*time.Second + 2*slo)
	for {
		st, err := noisyClient.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("polling noisy-tenant stats: %w", err)
		}
		if st.Pool.Tenants[noisy].InFlight >= 2 {
			break
		}
		if time.Now().After(admitDeadline) {
			return nil, fmt.Errorf("noisy tenant %s never reached its budget", noisy)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Victim load, concurrent with the saturation window: -batch
	// requests, alternating batch and stream across the replicas.
	victimSamples := make([]sample, c.batch)
	var victimSpan time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for i := range victimSamples {
			victimSamples[i] = request(ctx, victimClient, []string{"dev0", "dev1"}[i%2], c.trackDur, i%2 == 1)
		}
		victimSpan = time.Since(t0)
	}()

	// Fault injection: while the noisy tenant sits at its budget, every
	// probe must come back as the typed 429 — never an untyped error,
	// never a stall, and never at another tenant's expense.
	rejected429 := 0
	for i := 0; i < 5; i++ {
		_, perr := noisyClient.Track(ctx, serve.TrackRequest{Device: "dev0", DurationS: c.trackDur})
		if perr == nil {
			break // a slot freed — the saturation window ended
		}
		var apiErr *serve.APIError
		if !errors.As(perr, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != serve.CodeTenantSaturated {
			return nil, fmt.Errorf("saturated-tenant probe drew the wrong rejection: %v", perr)
		}
		rejected429++
		time.Sleep(20 * time.Millisecond)
	}
	if rejected429 == 0 {
		return nil, fmt.Errorf("noisy tenant %s at budget was never refused with %s", noisy, serve.CodeTenantSaturated)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.ElapsedS = elapsed.Seconds()

	// Per-tenant figures plus the isolation verdict.
	full, err := (&serve.Client{BaseURL: addr}).Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading pool stats: %w", err)
	}
	tenant := func(name string, samples []sample, span time.Duration) (benchreport.TenantFigures, error) {
		f, err := aggregate(samples, span, atSLO)
		if err != nil {
			return benchreport.TenantFigures{}, fmt.Errorf("tenant %s: %w", name, err)
		}
		return benchreport.TenantFigures{
			Requests:            len(samples),
			RequestsPerSec:      f.perSec,
			RequestsAtSLOPerSec: f.atSLOPerSec,
			SLOOkFraction:       f.okFraction,
			RequestP95Ms:        f.p95Ms,
			FrameLagP95Ms:       f.lagP95Ms,
			Rejected:            full.Pool.Tenants[name].Rejected,
			Saturated:           name == noisy,
		}, nil
	}
	// The noisy tenant's span is its longer stream.
	noisyFig, err := tenant(noisy, noisySamples, max(noisySamples[0].latency, noisySamples[1].latency))
	if err != nil {
		return nil, err
	}
	victimFig, err := tenant(victim, victimSamples, victimSpan)
	if err != nil {
		return nil, err
	}
	rep.Tenants = map[string]benchreport.TenantFigures{noisy: noisyFig, victim: victimFig}
	// The acceptance bar: the victim's streams hold p95 frame lag under
	// one window while the neighbour is saturated.
	rep.TenantIsolation = rep.Identity && noisyFig.RequestsAtSLOPerSec > 0 && victimFig.RequestsAtSLOPerSec > 0
	for _, s := range victimSamples {
		if s.kind == "stream" && !atSLO(s) {
			rep.TenantIsolation = false
		}
	}
	f, err := aggregate(append(noisySamples, victimSamples...), elapsed, atSLO)
	if err != nil {
		return nil, err
	}
	setRequests(rep, f)
	if st, err := victimClient.Stats(ctx); err == nil {
		rep.Engine = snapshotEngine(st.Engine)
	}

	fmt.Fprintf(out, "  noisy neighbor: %s held at budget, drew %d typed 429s (router counted %d)\n",
		noisy, rejected429, noisyFig.Rejected)
	for _, name := range []string{noisy, victim} {
		f := rep.Tenants[name]
		fmt.Fprintf(out, "  tenant %-4s %d requests, %.2f req/s (%.2f at SLO, %.0f%%), p95 %.1f ms, lag p95 %.2f ms, rejected %d\n",
			name, f.Requests, f.RequestsPerSec, f.RequestsAtSLOPerSec, 100*f.SLOOkFraction,
			f.RequestP95Ms, f.FrameLagP95Ms, f.Rejected)
	}
	fmt.Fprintf(out, "  tenant isolation: %v (victim streams held p95 lag < %.1f ms window under saturation)\n",
		rep.TenantIsolation, rep.WindowMs)
	return rep, nil
}

// replicaFactory builds each tenant two identically-seeded walker
// replicas, dev0 and dev1, so every tenant offers the wire-identity
// check a pair to compare. The paced tenant's replicas deliver samples
// at the radio's cadence.
func replicaFactory(seed int64, trackDur float64, paced string) func(string) (map[string]*wivi.Device, error) {
	return func(tenant string) (map[string]*wivi.Device, error) {
		registry := make(map[string]*wivi.Device, 2)
		for _, name := range []string{"dev0", "dev1"} {
			dev, err := walker(seed, trackDur, wivi.DeviceOptions{Paced: tenant == paced})
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

// request runs one wire request on device, a batch track or a stream
// collected to its result, and times it.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func request(ctx context.Context, client *serve.Client, device string, trackDur float64, stream bool) sample {
	t0 := time.Now()
	if stream {
		frames, _, err := collectStream(ctx, client, device, trackDur)
		lags := make([]time.Duration, len(frames))
		for i, fr := range frames {
			lags[i] = time.Duration(fr.LagMs * float64(time.Millisecond))
		}
		return sample{kind: "stream", latency: time.Since(t0), lags: lags, err: err}
	}
	res, err := client.Track(ctx, serve.TrackRequest{Device: device, DurationS: trackDur})
	s := sample{kind: "batch", latency: time.Since(t0), err: err}
	if err == nil {
		s.queue = time.Duration(res.QueueWaitMs * float64(time.Millisecond))
	}
	return s
}

// collectStream runs one streamed request to its result event. A
// stream that carried no frame fails.
func collectStream(ctx context.Context, client *serve.Client, device string, trackDur float64) ([]serve.Frame, *serve.TrackResponse, error) {
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
	if len(frames) == 0 {
		return nil, nil, errors.New("stream returned no frames")
	}
	return frames, cs.Result(), nil
}

// wireIdentity streams one request on each of two replica devices,
// returning whether their frames are bitwise identical (indices, times,
// every spectrum value; lag is wall clock and excluded) and the first
// stream's result. Fresh same-seed devices capture bit-identical data,
// so a mismatch means the wire broke determinism or float64
// round-tripping.
func wireIdentity(ctx context.Context, client *serve.Client, devA, devB string, trackDur float64) (bool, *serve.TrackResponse, error) {
	a, res, err := collectStream(ctx, client, devA, trackDur)
	if err != nil {
		return false, nil, fmt.Errorf("identity stream on %s: %w", devA, err)
	}
	b, _, err := collectStream(ctx, client, devB, trackDur)
	if err != nil {
		return false, nil, fmt.Errorf("identity stream on %s: %w", devB, err)
	}
	if len(a) != len(b) {
		return false, res, nil
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].TimeS) != math.Float64bits(b[i].TimeS) ||
			len(a[i].Power) != len(b[i].Power) {
			return false, res, nil
		}
		for k := range a[i].Power {
			if math.Float64bits(a[i].Power[k]) != math.Float64bits(b[i].Power[k]) {
				return false, res, nil
			}
		}
	}
	return true, res, nil
}
