package serve

// Multi-tenant serve-tier tests over a real pool.Router: tenant
// resolution (body field, header, default), typed unknown-tenant and
// saturation errors over the wire, per-tenant stats/metrics exposure,
// and the noisy-neighbor fault-injection suite — tenant A saturated to
// typed 429s while tenant B's streams complete with identity intact and
// p95 frame lag under one analysis window.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wivi"
	"wivi/internal/pool"
)

// walkerFactory builds each tenant an identically-seeded walker device
// registry: per-tenant isolation with cross-tenant determinism. paced
// names the tenants whose devices are paced (captures take wall-clock
// time — what lets a test hold a tenant saturated deterministically).
func walkerFactory(seed int64, paced map[string]bool) func(string) (map[string]*wivi.Device, error) {
	return func(tenant string) (map[string]*wivi.Device, error) {
		sc := wivi.NewScene(wivi.SceneOptions{Seed: seed})
		if err := sc.AddWalker(3); err != nil {
			return nil, err
		}
		dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{Paced: paced[tenant]})
		if err != nil {
			return nil, err
		}
		return map[string]*wivi.Device{"dev0": dev}, nil
	}
}

func TestTenantResolutionOrder(t *testing.T) {
	_, _, client := newTestServer(t, pool.Options{
		Tenants: []string{"a", "b"},
		Devices: walkerFactory(31, nil),
	}, nil)

	// No tenant anywhere → the default tenant.
	res, err := client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != pool.DefaultTenant {
		t.Fatalf("default-route tenant %q, want %q", res.Tenant, pool.DefaultTenant)
	}

	// Header-only → the header tenant.
	client.Tenant = "b"
	if res, err = client.Track(context.Background(), TrackRequest{DurationS: trackDur}); err != nil {
		t.Fatal(err)
	}
	if res.Tenant != "b" {
		t.Fatalf("header-route tenant %q, want b", res.Tenant)
	}

	// Body field wins over the header.
	if res, err = client.Track(context.Background(), TrackRequest{Tenant: "a", DurationS: trackDur}); err != nil {
		t.Fatal(err)
	}
	if res.Tenant != "a" {
		t.Fatalf("body-route tenant %q, want a", res.Tenant)
	}
}

// apiError asserts err is an *APIError with the given status and code.
func apiError(t *testing.T, err error, status int, code string) {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T), want *APIError", err, err)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("error %d %q, want %d %q", ae.Status, ae.Code, status, code)
	}
}

func TestUnknownTenantOverTheWire(t *testing.T) {
	_, _, client := newTestServer(t, pool.Options{
		Tenants: []string{"a"},
		Devices: walkerFactory(31, nil),
	}, nil)
	client.Tenant = "ghost"
	_, err := client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
	err = client.getJSON(context.Background(), "/v1/devices", &DevicesResponse{})
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
	_, err = client.Stats(context.Background())
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
}

// TestSingleTenantServerRejectsTenants: a server whose Router has only
// the default tenant serves that tenant, echoed by name, and nothing
// else.
func TestSingleTenantServerRejectsTenants(t *testing.T) {
	dev := newWalkerDevice(t, 31, 0, false)
	_, _, client := newTestServer(t, oneTenant(pool.Budget{Workers: 1}, map[string]*wivi.Device{"dev0": dev}), nil)

	client.Tenant = pool.DefaultTenant
	res, err := client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != pool.DefaultTenant {
		t.Fatalf("single-tenant response carries tenant %q, want %q", res.Tenant, pool.DefaultTenant)
	}

	client.Tenant = "other"
	_, err = client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
}

func TestPerTenantStatsAndMetrics(t *testing.T) {
	_, srv, client := newTestServer(t, pool.Options{
		Tenants: []string{"a", "b"},
		Devices: walkerFactory(31, nil),
	}, nil)
	for _, tn := range []string{"a", "b"} {
		if _, err := client.Track(context.Background(), TrackRequest{Tenant: tn, DurationS: trackDur}); err != nil {
			t.Fatal(err)
		}
	}

	// Full stats: every provisioned tenant present, per-tenant counters
	// settled to exactly what was routed.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.DefaultTenant != pool.DefaultTenant || len(st.Pool.Tenants) != 3 {
		t.Fatalf("pool stats %+v, want default tenant + 3 tenants", st.Pool)
	}
	for _, tn := range []string{"a", "b"} {
		ts := st.Pool.Tenants[tn]
		if ts.Submitted != 1 || ts.Engine.Completed != 1 {
			t.Fatalf("%s: submitted=%d completed=%d, want 1/1", tn, ts.Submitted, ts.Engine.Completed)
		}
	}
	if ts := st.Pool.Tenants[pool.DefaultTenant]; ts.Active || ts.Submitted != 0 {
		t.Fatalf("untouched default tenant %+v, want inactive", ts)
	}

	// ?tenant= narrows to one tenant and rebases the engine section.
	client.Tenant = "a"
	st, err = client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pool.Tenants) != 1 || st.Pool.Tenants["a"].Submitted != 1 {
		t.Fatalf("narrowed stats %+v, want tenant a only", st.Pool)
	}
	if st.Engine.Completed != 1 {
		t.Fatalf("narrowed engine section %+v, want a's engine", st.Engine)
	}

	// Metrics: tenant-labeled engine series plus the pool series.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`wivi_engine_completed_total{tenant="a"} 1`,
		`wivi_engine_completed_total{tenant="b"} 1`,
		`wivi_engine_completed_total{tenant="default"} 0`,
		`wivi_pool_active_engines 2`,
		`wivi_pool_submitted_total{tenant="a"} 1`,
		`wivi_pool_rejected_total{tenant="a"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestNoisyNeighborIsolation is the fault-injection suite the tentpole
// demands: tenant A is held at its budget (paced captures pin its slots
// for real wall-clock time), extra A requests fail typed 429 without
// touching B, and B keeps meeting its SLO: its streams complete
// bit-identical to an in-process reference with p95 frame lag under one
// analysis window, and its batch track completes within one capture
// duration. A's own held streams run to their results within the same
// frame-lag SLO, so every tenant, the saturated one included, is served.
func TestNoisyNeighborIsolation(t *testing.T) {
	const seed = 71
	_, _, client := newTestServer(t, pool.Options{
		Tenants: []string{"a", "b"},
		Budgets: map[string]pool.Budget{
			"a": {Workers: 1, QueueDepth: 1, MaxStreams: 2}, // maxInflight 2
			"b": {Workers: 2, QueueDepth: 4, MaxStreams: 2},
		},
		Devices: walkerFactory(seed, map[string]bool{"a": true}),
	}, nil)

	// The in-process reference for B's captures: a same-seed replica
	// streamed through a separate engine.
	refEng := wivi.NewEngine(wivi.EngineOptions{Workers: 1})
	defer refEng.Close()
	rh, err := refEng.Submit(context.Background(), wivi.Request{
		Device: newWalkerDevice(t, seed, 0, false), Duration: trackDur, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rst, err := rh.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ref []wivi.StreamFrame
	for fr := range rst.Frames() {
		ref = append(ref, fr)
	}
	if err := rst.Err(); err != nil {
		t.Fatal(err)
	}

	// Saturate A: two paced streams of 2 s of wall clock each occupy
	// its whole in-flight budget (one runs, the other queues behind it
	// on A's single worker) through B's checks below.
	var wg sync.WaitGroup
	held := make([][]Frame, 2)
	heldRes := make([]*TrackResponse, 2)
	heldErr := make([]error, 2)
	for i := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held[i], heldRes[i], heldErr[i] = streamFrames(client, TrackRequest{Tenant: "a", DurationS: 2})
		}()
	}

	// Wait until the pool reports A full.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := client.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Pool.Tenants["a"].InFlight == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant a never saturated: %+v", st.Pool.Tenants["a"])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A's next request is a typed 429 — shed at the router, not queued.
	_, err = client.Track(context.Background(), TrackRequest{Tenant: "a", DurationS: 1})
	apiError(t, err, http.StatusTooManyRequests, CodeTenantSaturated)

	// B, meanwhile: streams complete, identical to the reference, with
	// p95 frame lag under one window.
	var lagsMs []float64
	var windowMs float64
	for run := 0; run < 2; run++ {
		frames, res, err := streamFrames(client, TrackRequest{Tenant: "b", DurationS: trackDur})
		if err != nil {
			t.Fatalf("tenant b stream while a saturated: %v", err)
		}
		if res.Tenant != "b" {
			t.Fatalf("tenant b result %+v", res)
		}
		windowMs = res.WindowMs
		if got, wantN := len(frames), len(ref); got != wantN {
			t.Fatalf("tenant b frames %d, want %d", got, wantN)
		}
		for _, fr := range frames {
			lagsMs = append(lagsMs, fr.LagMs)
		}
		// Replica identity holds for the device's first capture only —
		// the sim device's noise stream and oscillator phase carry over
		// from one capture to the next, so run 1 checks completion and
		// lag, not bits.
		if run == 0 {
			for i, fr := range frames {
				if len(fr.Power) != len(ref[i].Power) {
					t.Fatalf("frame %d: %d bins, want %d", i, len(fr.Power), len(ref[i].Power))
				}
				for j := range ref[i].Power {
					if math.Float64bits(fr.Power[j]) != math.Float64bits(ref[i].Power[j]) {
						t.Fatalf("frame %d bin %d differs from reference — noisy neighbor broke identity", i, j)
					}
				}
			}
		}
	}
	if p95 := p95Ms(lagsMs); windowMs <= 0 || p95 >= windowMs {
		t.Fatalf("tenant b p95 frame lag %.1f ms, want < one window (%.1f ms)", p95, windowMs)
	}

	// B's batch track completes within one capture duration.
	start := time.Now()
	if _, err := client.Track(context.Background(), TrackRequest{Tenant: "b", DurationS: trackDur}); err != nil {
		t.Fatalf("tenant b track while a saturated: %v", err)
	}
	if took, slo := time.Since(start), time.Duration(trackDur*float64(time.Second)); took > slo {
		t.Fatalf("tenant b track took %v while a saturated, want within its %v capture", took, slo)
	}

	// A's saturation held through B's checks and was booked against A
	// alone.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Tenants["a"].InFlight != 2 {
		t.Fatalf("tenant a in flight %d after b's checks, want still saturated at 2", st.Pool.Tenants["a"].InFlight)
	}
	if st.Pool.Tenants["a"].Rejected < 1 {
		t.Fatalf("a.Rejected = %d, want >= 1", st.Pool.Tenants["a"].Rejected)
	}
	if st.Pool.Tenants["b"].Rejected != 0 {
		t.Fatalf("b.Rejected = %d, want 0", st.Pool.Tenants["b"].Rejected)
	}

	// A's held streams run to their results, within the same SLO.
	wg.Wait()
	lagsMs = lagsMs[:0]
	for i := range held {
		if heldErr[i] != nil {
			t.Fatalf("tenant a stream %d: %v", i, heldErr[i])
		}
		if heldRes[i].Tenant != "a" || len(held[i]) == 0 {
			t.Fatalf("tenant a stream %d: %d frames, result %+v", i, len(held[i]), heldRes[i])
		}
		for _, fr := range held[i] {
			lagsMs = append(lagsMs, fr.LagMs)
		}
	}
	if p95 := p95Ms(lagsMs); p95 >= heldRes[0].WindowMs {
		t.Fatalf("tenant a p95 frame lag %.1f ms, want < one window (%.1f ms)", p95, heldRes[0].WindowMs)
	}
}

// streamFrames runs one streamed request to its result event.
func streamFrames(client *Client, req TrackRequest) ([]Frame, *TrackResponse, error) {
	cs, err := client.TrackStream(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	defer cs.Close()
	var frames []Frame
	for {
		fr, ok := cs.Next()
		if !ok {
			break
		}
		frames = append(frames, fr)
	}
	return frames, cs.Result(), cs.Err()
}

// p95Ms returns the nearest-rank 95th percentile of a non-empty sample.
func p95Ms(ms []float64) float64 {
	sorted := slices.Clone(ms)
	slices.Sort(sorted)
	return sorted[int(math.Ceil(0.95*float64(len(sorted))))-1]
}

// TestPoolServerConfigValidation pins the one-backend rule: the Router
// is the only backend, every other Config field is optional, and a nil
// Clock defaults to the real clock.
func TestPoolServerConfigValidation(t *testing.T) {
	router := pool.NewRouter(pool.Options{})
	defer router.Close()

	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backend succeeded")
	}
	srv, err := New(Config{Pool: router})
	if err != nil {
		t.Fatalf("New with pool backend: %v", err)
	}
	if srv.clock == nil {
		t.Fatal("nil Config.Clock not defaulted")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200", rec.Code)
	}
}

// TestPoolDrainOverHTTP: server drain answers 503 "draining", and
// router.Close afterwards drains every tenant.
func TestPoolDrainOverHTTP(t *testing.T) {
	router, srv, client := newTestServer(t, pool.Options{
		Tenants: []string{"a"},
		Devices: walkerFactory(31, nil),
	}, nil)
	if _, err := client.Track(context.Background(), TrackRequest{Tenant: "a", DurationS: trackDur}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := client.Track(context.Background(), TrackRequest{Tenant: "a", DurationS: trackDur})
	apiError(t, err, http.StatusServiceUnavailable, CodeDraining)
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	// Draining one tenant surfaces as its typed error once the server
	// itself is past its drain gate — exercised at the router level here
	// because the HTTP gate already rejected above.
	if _, err := router.Submit(context.Background(), "a", wivi.Request{}); !errors.Is(err, pool.ErrClosed) {
		t.Fatalf("submit after close = %v, want pool.ErrClosed", err)
	}
}
