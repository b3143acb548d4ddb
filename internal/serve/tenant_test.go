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
	"sort"
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

// newPoolServer wires a pool-backed Server + Client.
func newPoolServer(t testing.TB, opts pool.Options) (*pool.Router, *Server, *Client) {
	t.Helper()
	router := pool.NewRouter(opts)
	t.Cleanup(func() {
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	srv, err := New(Config{Pool: router})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return router, srv, &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
}

func TestTenantResolutionOrder(t *testing.T) {
	_, _, client := newPoolServer(t, pool.Options{
		Tenants: []string{"a", "b"},
		Devices: walkerFactory(31, nil),
	})

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
	_, _, client := newPoolServer(t, pool.Options{
		Tenants: []string{"a"},
		Devices: walkerFactory(31, nil),
	})
	client.Tenant = "ghost"
	_, err := client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
	_, err = client.Devices(context.Background())
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
	_, err = client.Stats(context.Background())
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
}

// TestSingleTenantServerRejectsTenants pins the back-compat contract:
// an Engine-backed server is the default tenant and nothing else.
func TestSingleTenantServerRejectsTenants(t *testing.T) {
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 1})
	defer eng.Close()
	dev := newWalkerDevice(t, 31, 0, 0, false)
	_, client := newTestServer(t, eng, map[string]*wivi.Device{"dev0": dev}, nil)

	// The default tenant name is accepted (and the response stays in the
	// single-tenant wire shape, no tenant echo).
	client.Tenant = pool.DefaultTenant
	res, err := client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != "" {
		t.Fatalf("single-tenant response carries tenant %q, want empty", res.Tenant)
	}

	client.Tenant = "other"
	_, err = client.Track(context.Background(), TrackRequest{DurationS: trackDur})
	apiError(t, err, http.StatusNotFound, CodeUnknownTenant)
}

func TestPerTenantStatsAndMetrics(t *testing.T) {
	_, srv, client := newPoolServer(t, pool.Options{
		Tenants: []string{"a", "b"},
		Devices: walkerFactory(31, nil),
	})
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
	if st.Pool == nil {
		t.Fatal("pool-backed /v1/stats has no pool section")
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
// touching B, and B's streams keep completing — bit-identical to an
// in-process reference and with p95 frame lag under one analysis
// window.
func TestNoisyNeighborIsolation(t *testing.T) {
	const seed = 71
	_, _, client := newPoolServer(t, pool.Options{
		Tenants: []string{"a", "b"},
		Budgets: map[string]pool.Budget{
			"a": {Workers: 1, QueueDepth: 1, MaxStreams: 2}, // maxInflight 2
			"b": {Workers: 2, QueueDepth: 4, MaxStreams: 2},
		},
		Devices: walkerFactory(seed, map[string]bool{"a": true}),
	})

	// The in-process reference for B's captures: a same-seed replica
	// streamed through a separate engine.
	refEng := wivi.NewEngine(wivi.EngineOptions{Workers: 1})
	defer refEng.Close()
	rh, err := refEng.Submit(context.Background(), wivi.Request{
		Device: newWalkerDevice(t, seed, 0, 0, false), Duration: trackDur, Stream: true,
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

	// Saturate A: two paced streams (duration 3 s of wall clock each)
	// occupy its whole in-flight budget for the rest of the test.
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	var wg sync.WaitGroup
	hold := func() {
		defer wg.Done()
		cs, err := client.TrackStream(actx, TrackRequest{Tenant: "a", DurationS: 3})
		if err != nil {
			return // canceled at teardown
		}
		defer cs.Close()
		for {
			if _, ok := cs.Next(); !ok {
				return
			}
		}
	}
	wg.Add(2)
	go hold()
	go hold()

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
		cs, err := client.TrackStream(context.Background(), TrackRequest{Tenant: "b", DurationS: trackDur})
		if err != nil {
			t.Fatalf("tenant b stream while a saturated: %v", err)
		}
		var frames []Frame
		for {
			fr, ok := cs.Next()
			if !ok {
				break
			}
			frames = append(frames, fr)
			lagsMs = append(lagsMs, fr.LagMs)
		}
		if err := cs.Err(); err != nil {
			t.Fatalf("tenant b stream error: %v", err)
		}
		res := cs.Result()
		if res == nil || res.Tenant != "b" {
			t.Fatalf("tenant b result %+v", res)
		}
		windowMs = res.WindowMs
		if got, wantN := len(frames), len(ref); got != wantN {
			t.Fatalf("tenant b frames %d, want %d", got, wantN)
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
		cs.Close()
	}
	sort.Float64s(lagsMs)
	p95 := lagsMs[int(math.Ceil(0.95*float64(len(lagsMs))))-1]
	if windowMs <= 0 || p95 >= windowMs {
		t.Fatalf("tenant b p95 frame lag %.1f ms, want < one window (%.1f ms)", p95, windowMs)
	}

	// A's saturation was booked against A alone.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Tenants["a"].Rejected < 1 {
		t.Fatalf("a.Rejected = %d, want >= 1", st.Pool.Tenants["a"].Rejected)
	}
	if st.Pool.Tenants["b"].Rejected != 0 {
		t.Fatalf("b.Rejected = %d, want 0", st.Pool.Tenants["b"].Rejected)
	}

	// Teardown: release A's held streams so router.Close drains fast.
	acancel()
	wg.Wait()
}

// TestPoolServerConfigValidation pins the one-backend rule.
func TestPoolServerConfigValidation(t *testing.T) {
	router := pool.NewRouter(pool.Options{})
	defer router.Close()
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 1})
	defer eng.Close()
	dev := newWalkerDevice(t, 31, 0, 0, false)

	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backend succeeded")
	}
	if _, err := New(Config{Engine: eng, Pool: router, Devices: map[string]*wivi.Device{"dev0": dev}}); err == nil {
		t.Fatal("New with both backends succeeded")
	}
	if _, err := New(Config{Pool: router, Devices: map[string]*wivi.Device{"dev0": dev}}); err == nil {
		t.Fatal("New with pool + devices succeeded")
	}
	if _, err := New(Config{Pool: router}); err != nil {
		t.Fatalf("New with pool backend: %v", err)
	}
}

// TestPoolDrainOverHTTP: server drain still answers 503 "draining" with
// a pool backend, and router.Close afterwards drains every tenant.
func TestPoolDrainOverHTTP(t *testing.T) {
	router, srv, client := newPoolServer(t, pool.Options{
		Tenants: []string{"a"},
		Devices: walkerFactory(31, nil),
	})
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
