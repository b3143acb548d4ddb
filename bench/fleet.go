package main

// Set-up: build a workload's devices, stand up its engine or its served
// stack (pool.Router behind serve.Server on a loopback listener), and
// wrap either in the backend the load generator drives.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/pool"
	"wivi/internal/serve"
)

// env is one set-up of a workload.
type env struct {
	do doFunc
	// workers is the engine's worker count; stats snapshots the engine
	// and rejected counts the pool's typed 429s.
	workers  int
	stats    func() wivi.EngineStats
	rejected func() int64
	close    func()
}

// nproc is the host's CPU count as the Go runtime uses it: the engine
// workers, the client goroutines and the HTTP connections are all
// bounded by it.
func nproc() int { return runtime.GOMAXPROCS(0) }

// buildDevice builds one device over a fresh scene with the given seed
// and nulls it. paced is passed separately so the chain trace can build
// an unpaced replica of a paced device (pacing changes when samples
// arrive, never their values).
func buildDevice(spec deviceSpec, seed int64, motionS float64, paced bool) (*wivi.Device, error) {
	sc := wivi.NewScene(wivi.SceneOptions{Seed: seed, Wall: wivi.HollowWall})
	for k := 0; k < spec.walkers; k++ {
		if err := sc.AddWalker(motionS); err != nil {
			return nil, err
		}
	}
	if spec.gesture {
		if _, err := sc.AddGestureSender(gestureMessageSpec()); err != nil {
			return nil, err
		}
	}
	dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{Paced: paced})
	if err != nil {
		return nil, err
	}
	if _, err := dev.Null(); err != nil {
		return nil, fmt.Errorf("nulling %s: %w", spec.name, err)
	}
	return dev, nil
}

// buildFleet builds every device of the workload, timing each build when
// tr is set.
func buildFleet(w *workload, seed int64, clk core.Clock, tr *tierTrace) (map[string]*wivi.Device, error) {
	devs := make(map[string]*wivi.Device, len(w.devices))
	for i, spec := range w.devices {
		t0 := clk.Now()
		dev, err := buildDevice(spec, sceneSeed(w.devices, seed, i), w.motionS, spec.paced)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.noteBuild(clk.Now().Sub(t0))
		}
		devs[spec.name] = dev
	}
	return devs, nil
}

// setup builds one env for the workload and serves its warm-up request,
// so that devices are nulled and lazy caches are full before timing.
func setup(ctx context.Context, w *workload, seed int64, clk core.Clock, tr *tierTrace) (*env, error) {
	build := func() (map[string]*wivi.Device, error) { return buildFleet(w, seed, clk, tr) }
	var (
		e   *env
		err error
	)
	if w.http {
		e, err = startServed(w, build, clk, tr)
	} else {
		e, err = startEngine(w, build, clk)
	}
	if err != nil {
		return nil, err
	}
	if out := e.do(ctx, w.warm); out.code != "" {
		e.close()
		return nil, fmt.Errorf("warm-up request: %s: %w", out.code, out.err)
	}
	return e, nil
}

// startEngine serves the workload from an in-process wivi.Engine.
func startEngine(w *workload, build func() (map[string]*wivi.Device, error), clk core.Clock) (*env, error) {
	devs, err := build()
	if err != nil {
		return nil, err
	}
	b := &engineBackend{clk: clk}
	for _, spec := range w.devices {
		b.devs = append(b.devs, devs[spec.name])
	}
	b.eng = wivi.NewEngine(wivi.EngineOptions{Workers: nproc()})
	return &env{
		do:       b.do,
		workers:  nproc(),
		stats:    b.eng.Stats,
		rejected: func() int64 { return 0 },
		close:    func() { _ = b.eng.Close() },
	}, nil
}

// servedBudget is the tenant budget of every served workload. Streams
// and in-flight slots have headroom above the clients: the router frees
// a slot in a goroutine after the request settles, so a closed-loop
// client at exactly MaxStreams can draw a spurious 429 (README.md).
func servedBudget() pool.Budget {
	return pool.Budget{Workers: nproc(), QueueDepth: 2 * nproc(), MaxStreams: 2 * nproc()}
}

// startServed serves the workload through pool.Router and serve.Server
// on a loopback listener, driven by serve.Client over at most
// w.clients connections. With tr set, the handler, the response writer
// and the client transport are wrapped with timers.
func startServed(w *workload, build func() (map[string]*wivi.Device, error), clk core.Clock, tr *tierTrace) (*env, error) {
	router := pool.NewRouter(pool.Options{
		Budget:  servedBudget(),
		Devices: func(string) (map[string]*wivi.Device, error) { return build() },
	})
	srv, err := serve.New(serve.Config{Pool: router})
	if err != nil {
		_ = router.Close()
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tr.wrap(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = router.Close()
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	transport := &http.Transport{MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients, DisableCompression: true}
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = tracedTransport{base: transport, t: tr}
	}
	b := &httpBackend{
		client: &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: rt}},
		clk:    clk,
		tr:     tr,
	}
	for _, spec := range w.devices {
		b.names = append(b.names, spec.name)
	}
	tenant := func() pool.TenantStats {
		// The default tenant always exists; the error is only for
		// unknown tenants and a closed router, and env.close comes last.
		ts, _ := router.TenantStats(pool.DefaultTenant)
		return ts
	}
	return &env{
		do:       b.do,
		workers:  servedBudget().Workers,
		stats:    func() wivi.EngineStats { return tenant().Engine },
		rejected: func() int64 { return tenant().Rejected },
		close: func() {
			_ = hs.Close()
			<-served
			_ = router.Close()
			transport.CloseIdleConnections()
		},
	}, nil
}

// engineBackend sends requests straight to a wivi.Engine. Only
// track_batch runs in process, and it sends batch tracks only.
type engineBackend struct {
	eng  *wivi.Engine
	devs []*wivi.Device
	clk  core.Clock
}

func (b *engineBackend) do(ctx context.Context, req request) (out outcome) {
	fail := func(code string, err error) outcome {
		out.code, out.err, out.end = code, err, b.clk.Now()
		return out
	}
	h, err := b.eng.Submit(ctx, wivi.Request{Device: b.devs[req.device], Duration: req.dur})
	if err != nil {
		return fail("submit", err)
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return fail("wait", err)
	}
	out.end = b.clk.Now()
	out.first, out.frames, out.queueMs = out.end, res.Tracking.NumFrames(), ms(res.QueueWait)
	return checkResult(out, req, res.Tracking.NumFrames(), "")
}

// checkResult applies the output checks every request gets: the frame
// count matches the capture length (and, for streams, the frames
// received), and a gesture request decodes exactly the sent message.
func checkResult(out outcome, req request, resultFrames int, bits string) outcome {
	want := expectedFrames(req.dur)
	switch {
	case resultFrames != want || out.frames != want:
		out.code, out.err = "check", fmt.Errorf("%s of %gs: %d frames received, result says %d, want %d",
			req.kind, req.dur, out.frames, resultFrames, want)
	case req.kind == kindGesture && bits != gestureMessage:
		out.code, out.err = "check", fmt.Errorf("gesture decoded %q, want %q", bits, gestureMessage)
	}
	return out
}

// httpBackend sends requests over loopback HTTP with serve.Client.
type httpBackend struct {
	client *serve.Client
	names  []string
	clk    core.Clock
	tr     *tierTrace // nil when untraced
}

func (b *httpBackend) do(ctx context.Context, req request) (out outcome) {
	treq := serve.TrackRequest{Device: b.names[req.device], DurationS: req.dur}
	if req.kind == kindGesture {
		treq.Mode = serve.ModeGesture
	}
	if b.tr != nil {
		out.id = b.tr.newID()
		ctx = context.WithValue(ctx, requestIDKey{}, out.id)
	}
	fail := func(err error) outcome {
		out.end, out.err, out.code = b.clk.Now(), err, "transport"
		var api *serve.APIError
		if errors.As(err, &api) {
			out.code = api.Code
		}
		return out
	}
	if req.kind != kindStream {
		res, err := b.client.Track(ctx, treq)
		if err != nil {
			return fail(err)
		}
		out.end = b.clk.Now()
		out.first, out.frames, out.queueMs = out.end, res.NumFrames, res.QueueWaitMs
		bits := ""
		if res.Message != nil {
			bits = res.Message.Bits
		}
		return checkResult(out, req, res.NumFrames, bits)
	}
	cs, err := b.client.TrackStream(ctx, treq)
	if err != nil {
		return fail(err)
	}
	defer cs.Close()
	for {
		f, ok := cs.Next()
		if !ok {
			break
		}
		if out.frames == 0 {
			out.first = b.clk.Now()
		}
		if f.Index != out.frames {
			out.end, out.code, out.err = b.clk.Now(), "check", fmt.Errorf("frame %d arrived as index %d", out.frames, f.Index)
			return out
		}
		out.frames++
		out.lagsMs = append(out.lagsMs, f.LagMs)
		if b.tr != nil {
			b.tr.keepFrame(f)
		}
	}
	if err := cs.Err(); err != nil {
		return fail(err)
	}
	out.end = b.clk.Now()
	res := cs.Result()
	out.queueMs = res.QueueWaitMs
	return checkResult(out, req, res.NumFrames, "")
}

// identityPair checks the batch/stream identity on two fresh devices
// built from the workload's first scene with the same seed: a batch
// track on one and a stream on the other must give equal images, and
// the stream must deliver every frame of it.
func identityPair(ctx context.Context, w *workload, seed int64) error {
	spec := w.devices[0]
	var devs [2]*wivi.Device
	for i := range devs {
		d, err := buildDevice(spec, sceneSeed(w.devices, seed, 0), w.motionS, spec.paced)
		if err != nil {
			return err
		}
		devs[i] = d
	}
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 2, MaxStreams: 2})
	defer eng.Close()
	hb, err := eng.Submit(ctx, wivi.Request{Device: devs[0], Duration: w.pairS})
	if err != nil {
		return err
	}
	hs, err := eng.Submit(ctx, wivi.Request{Device: devs[1], Duration: w.pairS, Stream: true})
	if err != nil {
		return err
	}
	ts, err := hs.Stream(ctx)
	if err != nil {
		return err
	}
	streamed := 0
	for range ts.Frames() {
		streamed++
	}
	rs, err := hs.Wait(ctx)
	if err != nil {
		return err
	}
	rb, err := hb.Wait(ctx)
	if err != nil {
		return err
	}
	if !rs.Tracking.Equal(rb.Tracking) {
		return fmt.Errorf("stream of %gs on %s differs from the batch track", w.pairS, spec.name)
	}
	if streamed != rb.Tracking.NumFrames() {
		return fmt.Errorf("stream delivered %d of %d frames", streamed, rb.Tracking.NumFrames())
	}
	return nil
}
