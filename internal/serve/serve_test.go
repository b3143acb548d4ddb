package serve

// Integration tests of the HTTP tier against real pools and devices:
// wire identity (the batch/stream byte-identity invariant extended
// across serialization), fault injection (disconnect, drain, infeasible
// deadlines), request validation, and the stats/metrics endpoints.
// Handler-level determinism under FakeClock lives in clock_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/pool"
)

const trackDur = 1.0 // seconds; 9 frames at the default calibration

// newWalkerDevice builds the deterministic one-walker device of the
// identity tests: same seed ⇒ byte-identical captures.
func newWalkerDevice(t testing.TB, seed int64, workers int, paced bool) *wivi.Device {
	t.Helper()
	sc := wivi.NewScene(wivi.SceneOptions{Seed: seed})
	if err := sc.AddWalker(3); err != nil {
		t.Fatal(err)
	}
	dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{
		FrameWorkers: workers,
		Paced:        paced,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// oneTenant is the Router of a single-tenant server: only the default
// tenant, whose engine takes budget and whose registry is devices.
func oneTenant(budget pool.Budget, devices map[string]*wivi.Device) pool.Options {
	return pool.Options{
		Budget:  budget,
		Devices: func(string) (map[string]*wivi.Device, error) { return devices, nil },
	}
}

// newTestServer serves a Router built from opts and returns the router,
// the server and a client for it. mut adjusts the serve Config.
func newTestServer(t testing.TB, opts pool.Options, mut func(*Config)) (*pool.Router, *Server, *Client) {
	t.Helper()
	router := pool.NewRouter(opts)
	t.Cleanup(func() {
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	cfg := Config{Pool: router}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return router, srv, &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
}

// defaultTenant snapshots the default tenant's router and engine view.
func defaultTenant(t testing.TB, router *pool.Router) pool.TenantStats {
	t.Helper()
	ts, err := router.TenantStats(pool.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// batchTrack runs one in-process batch request through eng.
func batchTrack(t testing.TB, eng *wivi.Engine, dev *wivi.Device) *wivi.TrackingResult {
	t.Helper()
	h, err := eng.Submit(context.Background(), wivi.Request{Device: dev, Duration: trackDur})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Tracking
}

// TestWireIdentity is the tentpole acceptance test: frames streamed
// over HTTP and decoded client-side must be bit-identical to the
// in-process stream — which is itself verified identical to batch
// Track — for worker counts {1, 4}. Identity must survive JSON
// serialization because encoding/json emits the shortest float64
// representation that re-parses exactly.
func TestWireIdentity(t *testing.T) {
	const seed = 71
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 2})
	defer eng.Close()
	want := batchTrack(t, eng, newWalkerDevice(t, seed, 0, false))

	for _, workers := range []int{1, 4} {
		// In-process stream with the same knobs: collect the reference
		// frames and pin the in-process half of the invariant.
		devIn := newWalkerDevice(t, seed, workers, false)
		h, err := eng.Submit(context.Background(), wivi.Request{Device: devIn, Duration: trackDur, Stream: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st, err := h.Stream(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var ref []wivi.StreamFrame
		for fr := range st.Frames() {
			ref = append(ref, fr)
		}
		if err := st.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		inRes, err := st.Result()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !inRes.Equal(want) {
			t.Fatalf("workers=%d: in-process stream differs from batch Track", workers)
		}

		// The same capture over the wire.
		devWire := newWalkerDevice(t, seed, workers, false)
		_, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 2}, map[string]*wivi.Device{"dev0": devWire}), nil)
		cs, err := client.TrackStream(context.Background(), TrackRequest{Device: "dev0", DurationS: trackDur})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var wire []Frame
		for {
			fr, ok := cs.Next()
			if !ok {
				break
			}
			wire = append(wire, fr)
		}
		if err := cs.Err(); err != nil {
			t.Fatalf("workers=%d: stream error: %v", workers, err)
		}
		cs.Close()

		if len(wire) != len(ref) {
			t.Fatalf("workers=%d: %d wire frames, want %d", workers, len(wire), len(ref))
		}
		for i, fr := range wire {
			if fr.Index != ref[i].Index {
				t.Fatalf("workers=%d frame %d: index %d, want %d", workers, i, fr.Index, ref[i].Index)
			}
			if math.Float64bits(fr.TimeS) != math.Float64bits(ref[i].Time) {
				t.Fatalf("workers=%d frame %d: time %v != %v", workers, i, fr.TimeS, ref[i].Time)
			}
			if len(fr.Power) != len(ref[i].Power) {
				t.Fatalf("workers=%d frame %d: %d power bins, want %d", workers, i, len(fr.Power), len(ref[i].Power))
			}
			for k := range fr.Power {
				if math.Float64bits(fr.Power[k]) != math.Float64bits(ref[i].Power[k]) {
					t.Fatalf("workers=%d frame %d bin %d: %x != %x",
						workers, i, k, math.Float64bits(fr.Power[k]), math.Float64bits(ref[i].Power[k]))
				}
			}
		}
		res := cs.Result()
		if res == nil {
			t.Fatalf("workers=%d: no terminal result event", workers)
		}
		if res.NumFrames != want.NumFrames() || res.NumFrames != len(wire) {
			t.Fatalf("workers=%d: result num_frames %d, want %d (streamed %d)",
				workers, res.NumFrames, want.NumFrames(), len(wire))
		}
		if res.WindowMs <= 0 {
			t.Fatalf("workers=%d: streamed result missing window_ms", workers)
		}
	}
}

// TestBatchAndGestureOverWire runs the batch JSON path in both modes:
// tracking matches the in-process frame count, gesture mode decodes the
// exact in-process message over the wire.
func TestBatchAndGestureOverWire(t *testing.T) {
	sc := wivi.NewScene(wivi.SceneOptions{Seed: 21, RoomWidth: 11, RoomDepth: 8})
	dur, err := sc.AddGestureSender(wivi.GestureMessage{Bits: []wivi.Bit{wivi.Bit0, wivi.Bit1}, Distance: 3})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 2})
	defer eng.Close()

	h, err := eng.Submit(context.Background(), wivi.Request{Device: dev, Duration: dur, Mode: wivi.Gesture})
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	_, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 2}, map[string]*wivi.Device{"dev0": dev}), nil)

	// Empty device name resolves to the registry's first device.
	got, err := client.Track(context.Background(), TrackRequest{Mode: ModeGesture, DurationS: dur})
	if err != nil {
		t.Fatal(err)
	}
	if got.Message == nil {
		t.Fatal("gesture response carries no message")
	}
	if got.Message.Bits != want.Message.String() {
		t.Fatalf("wire message %q, want %q", got.Message.Bits, want.Message.String())
	}
	if got.Message.Steps != want.Message.Steps || got.Message.Erasures != want.Message.Erasures {
		t.Fatalf("wire message counters %+v, want steps=%d erasures=%d",
			got.Message, want.Message.Steps, want.Message.Erasures)
	}
	if got.NumFrames != want.Tracking.NumFrames() {
		t.Fatalf("wire num_frames %d, want %d", got.NumFrames, want.Tracking.NumFrames())
	}

	// Track mode on the same device: no message, frames still counted.
	got, err = client.Track(context.Background(), TrackRequest{Device: "dev0", DurationS: trackDur})
	if err != nil {
		t.Fatal(err)
	}
	if got.Message != nil {
		t.Fatal("track-mode response carries a gesture message")
	}
	if got.NumFrames == 0 || got.Mode != ModeTrack {
		t.Fatalf("track response %+v", got)
	}
}

// TestDeadlineInfeasible503 maps admission rejection to typed load
// shedding: a paced capture cannot beat its own duration, so a tighter
// deadline must answer 503 with code "deadline_infeasible" — without
// running any capture.
func TestDeadlineInfeasible503(t *testing.T) {
	dev := newWalkerDevice(t, 31, 0, true)
	router, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 1}, map[string]*wivi.Device{"dev0": dev}), nil)

	_, err := client.Track(context.Background(), TrackRequest{Device: "dev0", DurationS: 1, DeadlineMs: 10})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDeadlineInfeasible {
		t.Fatalf("got %d/%s, want 503/%s", apiErr.Status, apiErr.Code, CodeDeadlineInfeasible)
	}
	if st := defaultTenant(t, router).Engine; st.Completed != 0 {
		t.Fatalf("rejected request still ran a capture: %+v", st)
	}
}

// TestDrain exercises graceful shutdown with an in-flight stream: the
// stream finishes every frame, late submits answer 503 "draining",
// /healthz flips to 503, and Drain returns once the stream is done.
func TestDrain(t *testing.T) {
	dev := newWalkerDevice(t, 33, 0, true) // paced: the stream outlives Drain's start
	_, srv, client := newTestServer(t, oneTenant(pool.Budget{Workers: 2}, map[string]*wivi.Device{"dev0": dev}), nil)

	cs, err := client.TrackStream(context.Background(), TrackRequest{Device: "dev0", DurationS: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, ok := cs.Next(); !ok {
		t.Fatalf("no first frame: %v", cs.Err())
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Late submit: refused with the typed draining error.
	_, err = client.Track(context.Background(), TrackRequest{Device: "dev0", DurationS: 0.1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining {
		t.Fatalf("late submit error %v, want 503/%s", err, CodeDraining)
	}

	// Health flips so load balancers stop routing here.
	resp, err := client.http().Get(client.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status %d, want 503", resp.StatusCode)
	}

	// The in-flight stream still runs to its final frame and result.
	frames := 1
	for {
		if _, ok := cs.Next(); !ok {
			break
		}
		frames++
	}
	if err := cs.Err(); err != nil {
		t.Fatalf("in-flight stream failed during drain: %v", err)
	}
	res := cs.Result()
	if res == nil || res.NumFrames != frames {
		t.Fatalf("drained stream result %+v after %d frames", res, frames)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestClientDisconnectNoLeak is the fault-injection acceptance test: a
// client vanishing mid-stream must propagate cancellation into the
// engine (stream slot freed, capture aborted) and leave zero leaked
// goroutines. Run under -race this doubles as the tier's concurrency
// stress.
func TestClientDisconnectNoLeak(t *testing.T) {
	dev := newWalkerDevice(t, 35, 0, true) // paced: the capture is slow enough to abandon
	router, srv, client := newTestServer(t, oneTenant(pool.Budget{Workers: 2}, map[string]*wivi.Device{"dev0": dev}), nil)

	// Warm up: one complete stream stabilizes the engine pool and the
	// HTTP client's transport goroutines before the baseline is taken.
	warm, err := client.TrackStream(context.Background(), TrackRequest{Device: "dev0", DurationS: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := warm.Next(); !ok {
			break
		}
	}
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	client.http().CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cs, err := client.TrackStream(ctx, TrackRequest{Device: "dev0", DurationS: 2})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if _, ok := cs.Next(); !ok {
			cancel()
			t.Fatalf("iteration %d: no first frame: %v", i, cs.Err())
		}
		cancel() // the client disappears mid-stream
		cs.Close()

		// The handler must observe the disconnect and free the engine's
		// and the tenant's stream slots long before the 2 s capture would
		// have finished.
		deadline := time.Now().Add(5 * time.Second)
		for {
			ts := defaultTenant(t, router)
			if ts.Engine.ActiveStreams == 0 && ts.Engine.InFlight == 0 && ts.InFlight == 0 &&
				srv.activeRequests() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: tenant still busy after disconnect: %+v", i, ts)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The disconnects were booked as client-closed, not success.
	if n := srv.serveStats().RequestsByCode["/v1/track 499"]; n != 2 {
		t.Fatalf("499 count %d, want 2 (%+v)", n, srv.serveStats().RequestsByCode)
	}

	// Goroutines drain back to the warmed-up baseline.
	client.http().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// validationCases are the typed 4xx answers to invalid TrackRequests
// on a server capped at validationMaxDurationS with the one device
// "dev0" (an oversized body is one whose device name alone passes the
// body cap); FuzzTrackRequest seeds its corpus from them.
var validationCases = []struct {
	name   string
	req    TrackRequest
	status int
	code   string
}{
	{"zero duration", TrackRequest{Device: "dev0"}, http.StatusBadRequest, CodeBadRequest},
	{"negative duration", TrackRequest{Device: "dev0", DurationS: -1}, http.StatusBadRequest, CodeBadRequest},
	{"over cap", TrackRequest{Device: "dev0", DurationS: 4}, http.StatusBadRequest, CodeBadRequest},
	{"negative deadline", TrackRequest{Device: "dev0", DurationS: 1, DeadlineMs: -5}, http.StatusBadRequest, CodeBadRequest},
	{"bad mode", TrackRequest{Device: "dev0", DurationS: 1, Mode: "sonar"}, http.StatusBadRequest, CodeBadRequest},
	{"unknown device", TrackRequest{Device: "nope", DurationS: 1}, http.StatusNotFound, CodeUnknownDevice},
	{"unknown tenant", TrackRequest{Tenant: "ghost", Device: "dev0", DurationS: 1}, http.StatusNotFound, CodeUnknownTenant},
	{"oversized body", TrackRequest{Device: strings.Repeat("d", maxTrackBodyBytes), DurationS: 1},
		http.StatusRequestEntityTooLarge, CodeRequestTooLarge},
}

const validationMaxDurationS = 3

// TestRequestValidation pins the typed 4xx contract.
func TestRequestValidation(t *testing.T) {
	dev := newWalkerDevice(t, 37, 0, false)
	_, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 1}, map[string]*wivi.Device{"dev0": dev}),
		func(c *Config) { c.MaxDurationS = validationMaxDurationS })

	for _, tc := range validationCases {
		_, err := client.Track(context.Background(), tc.req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: error %v, want *APIError", tc.name, err)
		}
		if apiErr.Status != tc.status || apiErr.Code != tc.code {
			t.Fatalf("%s: got %d/%s, want %d/%s", tc.name, apiErr.Status, apiErr.Code, tc.status, tc.code)
		}
	}

	// A body that is not JSON at all.
	resp, err := client.http().Post(client.BaseURL+"/v1/track", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", resp.StatusCode)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil || eresp.Err.Code != CodeBadRequest {
		t.Fatalf("malformed body error %+v (%v), want code %s", eresp, err, CodeBadRequest)
	}
}

// TestSubWindowDuration pins the one-window floor: a capture shorter
// than one analysis window images nothing, so it answers 400
// bad_request for batch and stream alike, while exactly one window
// (the request of the benchmark's serve_short workload) answers 200
// with one frame.
func TestSubWindowDuration(t *testing.T) {
	dev := newWalkerDevice(t, 43, 0, false)
	_, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 2}, map[string]*wivi.Device{"dev0": dev}), nil)
	ctx := context.Background()
	short := TrackRequest{Device: "dev0", DurationS: 0.1}
	_, batchErr := client.Track(ctx, short)
	_, streamErr := client.TrackStream(ctx, short)
	for kind, err := range map[string]error{"batch": batchErr, "stream": streamErr} {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Fatalf("0.1 s %s: error %v, want 400 %s", kind, err, CodeBadRequest)
		}
	}
	res, err := client.Track(ctx, TrackRequest{Device: "dev0", DurationS: 0.32})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrames != 1 {
		t.Fatalf("0.32 s capture answered %d frames, want 1", res.NumFrames)
	}
}

// TestStatsAndMetrics pins the observability surface: /v1/stats JSON
// and the Prometheus rendering both reflect a completed request, with
// every engine series labelled by its tenant.
func TestStatsAndMetrics(t *testing.T) {
	dev := newWalkerDevice(t, 39, 0, false)
	_, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 1}, map[string]*wivi.Device{"dev0": dev}), nil)

	if _, err := client.Track(context.Background(), TrackRequest{Device: "dev0", DurationS: trackDur}); err != nil {
		t.Fatal(err)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Completed < 1 || st.Engine.Frames < 1 {
		t.Fatalf("engine stats %+v, want a completed request with frames", st.Engine)
	}
	if ts, ok := st.Pool.Tenants[pool.DefaultTenant]; !ok || ts.Submitted != 1 || len(st.Pool.Tenants) != 1 {
		t.Fatalf("pool stats %+v, want the default tenant alone with one submit", st.Pool)
	}
	if st.Serve.RequestLatency.Count != 1 || st.Serve.RequestLatency.P50 <= 0 {
		t.Fatalf("serve request latency %+v, want one positive sample", st.Serve.RequestLatency)
	}
	if n := st.Serve.RequestsByCode["/v1/track 200"]; n != 1 {
		t.Fatalf("/v1/track 200 count %d, want 1 (%+v)", n, st.Serve.RequestsByCode)
	}

	var dr DevicesResponse
	if err := client.getJSON(context.Background(), "/v1/devices", &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Tenant != pool.DefaultTenant || len(dr.Devices) != 1 || dr.Devices[0] != "dev0" {
		t.Fatalf("devices %+v", dr)
	}

	resp, err := client.http().Get(client.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`wivi_engine_completed_total{tenant="default"} 1`,
		`wivi_engine_queue_wait_seconds{tenant="default",quantile="0.5"}`,
		`wivi_engine_queue_wait_seconds_count{tenant="default"} 1`,
		`wivi_pool_submitted_total{tenant="default"} 1`,
		"wivi_serve_request_duration_seconds_count 1",
		`wivi_serve_requests_total{endpoint="/v1/track",code="200"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "wivi_engine_") && !strings.Contains(line, `{tenant="`) {
			t.Fatalf("unlabelled engine series %q", line)
		}
	}
}

// TestNewValidation pins constructor errors: without a pool, New fails
// however the other fields are set.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a pool succeeded")
	}
	cfg := Config{MaxDurationS: 1, RequestTimeout: time.Second, Clock: core.RealClock()}
	if _, err := New(cfg); err == nil {
		t.Fatal("New with every field but the pool succeeded")
	}
}

// TestDefaultCaptureCap pins the cap of a server whose Config sets none:
// an 11 s track answers 400 bad_request, a 2 s one answers 200, and
// /v1/devices reports the 10 s default. A negative, NaN or infinite cap
// is refused.
func TestDefaultCaptureCap(t *testing.T) {
	dev := newWalkerDevice(t, 47, 0, false)
	router, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 1}, map[string]*wivi.Device{"dev0": dev}), nil)
	ctx := context.Background()
	_, err := client.Track(ctx, TrackRequest{Device: "dev0", DurationS: 11})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("11 s track: error %v, want 400 %s", err, CodeBadRequest)
	}
	if _, err := client.Track(ctx, TrackRequest{Device: "dev0", DurationS: 2}); err != nil {
		t.Fatalf("2 s track: %v", err)
	}
	var devs DevicesResponse
	if err := client.getJSON(ctx, "/v1/devices", &devs); err != nil {
		t.Fatal(err)
	}
	if devs.MaxDurationS != 10 {
		t.Fatalf("/v1/devices reports a cap of %g s, want 10", devs.MaxDurationS)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Pool: router, MaxDurationS: bad}); err == nil {
			t.Fatalf("New with MaxDurationS %g succeeded", bad)
		}
	}
}
