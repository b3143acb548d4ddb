package pool

// Router semantics under scripted engines (the tenantEngine seam keeps
// requests in flight deterministically) plus one end-to-end pass over
// real engines/devices. The edge cases here are the isolation contract:
// unknown tenant, typed saturation, submit racing close, idle eviction
// vs in-flight work on a FakeClock, exact per-tenant counter settling,
// and zero goroutine leaks under -race.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wivi"
	"wivi/internal/core"
)

// fakeHandle is a request whose settling the test controls: Wait blocks
// until finish is closed.
type fakeHandle struct {
	finish chan struct{}
}

func (h *fakeHandle) Wait(ctx context.Context) (*wivi.Result, error) {
	select {
	case <-h.finish:
		return &wivi.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (h *fakeHandle) Stream(ctx context.Context) (*wivi.TrackStream, error) {
	return nil, errors.New("fake: no stream")
}

// fakeEngine records submissions and closes; handles settle only when
// the test says so.
type fakeEngine struct {
	mu      sync.Mutex
	handles []*fakeHandle
	closed  bool
}

func (e *fakeEngine) Submit(ctx context.Context, req wivi.Request) (engineHandle, error) {
	h := &fakeHandle{finish: make(chan struct{})}
	e.mu.Lock()
	e.handles = append(e.handles, h)
	e.mu.Unlock()
	return h, nil
}

func (e *fakeEngine) Stats() wivi.EngineStats { return wivi.EngineStats{} }

func (e *fakeEngine) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	return nil
}

func (e *fakeEngine) finishAll() {
	e.mu.Lock()
	for _, h := range e.handles {
		select {
		case <-h.finish:
		default:
			close(h.finish)
		}
	}
	e.mu.Unlock()
}

func (e *fakeEngine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// fakeFactory hands each tenant its own fakeEngine and counts builds.
type fakeFactory struct {
	mu      sync.Mutex
	engines []*fakeEngine
	builds  int
}

func (f *fakeFactory) build(Budget) tenantEngine {
	e := &fakeEngine{}
	f.mu.Lock()
	f.engines = append(f.engines, e)
	f.builds++
	f.mu.Unlock()
	return e
}

func (f *fakeFactory) last() *fakeEngine {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.engines) == 0 {
		return nil
	}
	return f.engines[len(f.engines)-1]
}

func (f *fakeFactory) buildCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.builds
}

// newFakeRouter wires a Router onto scripted engines.
func newFakeRouter(t *testing.T, opts Options) (*Router, *fakeFactory) {
	t.Helper()
	r := NewRouter(opts)
	f := &fakeFactory{}
	r.newEngine = f.build
	t.Cleanup(func() {
		// Settle anything still in flight so Close never hangs a test.
		f.mu.Lock()
		engines := append([]*fakeEngine(nil), f.engines...)
		f.mu.Unlock()
		for _, e := range engines {
			e.finishAll()
		}
		_ = r.Close()
	})
	return r, f
}

// settle polls until cond holds; release goroutines settle counters a
// beat after handles finish, so tests wait for the exact state instead
// of sleeping a guessed duration.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func tenantInflight(r *Router, name string) int {
	ts, err := r.TenantStats(name)
	if err != nil {
		return -1
	}
	return ts.InFlight
}

func TestUnknownTenant(t *testing.T) {
	r, _ := newFakeRouter(t, Options{Tenants: []string{"a"}})
	if _, err := r.Submit(context.Background(), "nope", wivi.Request{}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Submit(unknown) = %v, want ErrUnknownTenant", err)
	}
	if _, _, err := r.Devices("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Devices(unknown) = %v, want ErrUnknownTenant", err)
	}
	if _, err := r.TenantStats("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("TenantStats(unknown) = %v, want ErrUnknownTenant", err)
	}
	// "" routes to the default tenant — the back-compat contract.
	if _, err := r.Submit(context.Background(), "", wivi.Request{}); err != nil {
		t.Fatalf("Submit(\"\") = %v, want default-tenant admission", err)
	}
}

func TestSaturationIsTypedAndIsolated(t *testing.T) {
	r, f := newFakeRouter(t, Options{
		Budget:  Budget{Workers: 1, QueueDepth: 1, MaxStreams: 1}, // maxInflight = 2
		Tenants: []string{"a", "b"},
	})
	// Fill tenant a to its in-flight budget.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); !errors.Is(err, ErrTenantSaturated) {
		t.Fatalf("saturated submit = %v, want ErrTenantSaturated", err)
	}
	// Isolation: a's saturation neither touches b's engine nor blocks
	// b's admission. b has no engine yet; its submit must create one and
	// succeed immediately.
	if got := f.buildCount(); got != 1 {
		t.Fatalf("engines built = %d, want 1 (a only)", got)
	}
	if _, err := r.Submit(context.Background(), "b", wivi.Request{}); err != nil {
		t.Fatalf("tenant b submit while a saturated: %v", err)
	}
	st := r.Stats()
	if got := st.Tenants["a"].Rejected; got != 1 {
		t.Fatalf("a.Rejected = %d, want 1", got)
	}
	if got := st.Tenants["b"].Rejected; got != 0 {
		t.Fatalf("b.Rejected = %d, want 0", got)
	}
	// Releasing one of a's requests reopens exactly one slot.
	f.engines[0].mu.Lock()
	h := f.engines[0].handles[0]
	f.engines[0].mu.Unlock()
	close(h.finish)
	settle(t, "a inflight 1", func() bool { return tenantInflight(r, "a") == 1 })
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
		t.Fatalf("submit after release: %v", err)
	}
}

func TestStreamCapSeparateFromBatch(t *testing.T) {
	r, _ := newFakeRouter(t, Options{
		Budget: Budget{Workers: 4, QueueDepth: 8, MaxStreams: 1},
	})
	if _, err := r.Submit(context.Background(), "", wivi.Request{Stream: true}); err != nil {
		t.Fatalf("first stream: %v", err)
	}
	if _, err := r.Submit(context.Background(), "", wivi.Request{Stream: true}); !errors.Is(err, ErrTenantSaturated) {
		t.Fatalf("second stream = %v, want ErrTenantSaturated", err)
	}
	// Batch requests are capped by inflight, not the stream slot.
	if _, err := r.Submit(context.Background(), "", wivi.Request{}); err != nil {
		t.Fatalf("batch while streams saturated: %v", err)
	}
}

// TestSubmitRacingClose: a Submit that resolved its tenant just before
// Close began must still be refused once Close has reached the tenant,
// not admitted onto a fresh engine that nothing would ever close.
func TestSubmitRacingClose(t *testing.T) {
	r, f := newFakeRouter(t, Options{Tenants: []string{"a"}})
	ta, err := r.tenantFor("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.submit(context.Background(), r, wivi.Request{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit on a tenant resolved before Close = %v, want ErrClosed", err)
	}
	if got := f.buildCount(); got != 0 {
		t.Fatalf("engines built = %d, want 0", got)
	}
}

// TestCloseWaitsForInFlight: while Close waits on an in-flight request,
// every submit is refused and the engine stays open; once the request
// settles, Close closes that engine and returns, and no second engine
// was ever built.
func TestCloseWaitsForInFlight(t *testing.T) {
	r, f := newFakeRouter(t, Options{Tenants: []string{"a"}})
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
		t.Fatal(err)
	}
	eng := f.last()
	ta, err := r.tenantFor("a")
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	settle(t, "Close reaching tenant a", func() bool {
		ta.mu.Lock()
		defer ta.mu.Unlock()
		return ta.closed
	})
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit while Close waits = %v, want ErrClosed", err)
	}
	if _, err := ta.submit(context.Background(), r, wivi.Request{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("tenant submit while Close waits = %v, want ErrClosed", err)
	}
	if _, _, err := ta.devicesFor(r); !errors.Is(err, ErrClosed) {
		t.Fatalf("Devices while Close waits = %v, want ErrClosed", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a request in flight", err)
	default:
	}
	if eng.isClosed() {
		t.Fatal("engine closed with a request in flight")
	}

	eng.finishAll()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !eng.isClosed() {
		t.Fatal("Close returned with the tenant's engine open")
	}
	if got := f.buildCount(); got != 1 {
		t.Fatalf("engines built = %d, want 1", got)
	}
}

// TestSecondCloseWaitsForFirst: a Close that arrives while the first is
// still waiting on an in-flight request waits with it, and returns only
// once the tenant's engine has closed.
func TestSecondCloseWaitsForFirst(t *testing.T) {
	r, f := newFakeRouter(t, Options{Tenants: []string{"a"}})
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
		t.Fatal(err)
	}
	eng := f.last()
	ta, err := r.tenantFor("a")
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- r.Close() }()
	settle(t, "Close reaching tenant a", func() bool {
		ta.mu.Lock()
		defer ta.mu.Unlock()
		return ta.closed
	})
	second := make(chan error, 1)
	go func() { second <- r.Close() }()
	select {
	case err := <-second:
		t.Fatalf("second Close returned %v with the engine still open", err)
	case <-time.After(50 * time.Millisecond):
	}
	eng.finishAll()
	for _, c := range []chan error{first, second} {
		if err := <-c; err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	if !eng.isClosed() {
		t.Fatal("Close returned with the tenant's engine open")
	}
}

func TestIdleEvictionOnFakeClock(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), false)
	r, f := newFakeRouter(t, Options{
		Tenants:     []string{"a", "b"},
		IdleTimeout: time.Minute,
		Clock:       clk,
	})
	// a goes idle; b keeps a request in flight.
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
		t.Fatal(err)
	}
	engA := f.last()
	engA.finishAll()
	settle(t, "a idle", func() bool { return tenantInflight(r, "a") == 0 })
	if _, err := r.Submit(context.Background(), "b", wivi.Request{Stream: true}); err != nil {
		t.Fatal(err)
	}
	engB := f.last()

	// Before the idle cutoff nothing is evicted.
	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep before timeout evicted %d", n)
	}
	clk.Advance(time.Minute)
	// Exactly a is evicted: b's in-flight stream pins its engine no
	// matter how stale its lastActive is.
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if !engA.isClosed() {
		t.Fatal("evicted engine not closed")
	}
	if engB.isClosed() {
		t.Fatal("in-flight tenant's engine evicted")
	}
	st := r.Stats()
	if st.Tenants["a"].Active || st.Tenants["a"].Evictions != 1 {
		t.Fatalf("a after eviction: %+v", st.Tenants["a"])
	}
	if !st.Tenants["b"].Active {
		t.Fatal("b lost its engine")
	}

	// Eviction is invisible beyond a cold start: a's next submit builds
	// a fresh engine.
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
		t.Fatalf("submit after eviction: %v", err)
	}
	if got := f.buildCount(); got != 3 {
		t.Fatalf("engines built = %d, want 3", got)
	}
}

func TestDevicesFactoryPerTenantAndAfterEviction(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), false)
	var calls atomic.Int64
	r, f := newFakeRouter(t, Options{
		Tenants:     []string{"a"},
		IdleTimeout: time.Minute,
		Clock:       clk,
		Devices: func(tenant string) (map[string]*wivi.Device, error) {
			calls.Add(1)
			return map[string]*wivi.Device{tenant + "-dev0": nil}, nil
		},
	})
	names, _, err := r.Devices("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a-dev0" {
		t.Fatalf("names = %v", names)
	}
	// Cached on second resolve.
	if _, _, err := r.Devices("a"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("factory calls = %d, want 1", got)
	}
	// Eviction releases the registry; the next resolve rebuilds it.
	if _, err := r.Submit(context.Background(), "a", wivi.Request{}); err != nil {
		t.Fatal(err)
	}
	f.last().finishAll()
	settle(t, "a idle", func() bool { return tenantInflight(r, "a") == 0 })
	clk.Advance(time.Minute)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if _, _, err := r.Devices("a"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("factory calls after eviction = %d, want 2", got)
	}
}

func TestStatsSettleExactUnderMixedLoad(t *testing.T) {
	r, f := newFakeRouter(t, Options{
		Budget:  Budget{Workers: 8, QueueDepth: 32, MaxStreams: 4},
		Tenants: []string{"a", "b"},
	})
	const perTenant = 10
	for i := 0; i < perTenant; i++ {
		for _, tn := range []string{"a", "b"} {
			req := wivi.Request{Stream: i%3 == 0}
			if _, err := r.Submit(context.Background(), tn, req); err != nil {
				t.Fatalf("%s #%d: %v", tn, i, err)
			}
		}
	}
	st := r.Stats()
	if st.Tenants["a"].InFlight != perTenant || st.Tenants["b"].InFlight != perTenant {
		t.Fatalf("in-flight = %d/%d, want %d each",
			st.Tenants["a"].InFlight, st.Tenants["b"].InFlight, perTenant)
	}
	for _, e := range f.engines {
		e.finishAll()
	}
	settle(t, "all settled", func() bool {
		return tenantInflight(r, "a") == 0 && tenantInflight(r, "b") == 0
	})
	st = r.Stats()
	for _, tn := range []string{"a", "b"} {
		ts := st.Tenants[tn]
		if ts.Submitted != perTenant || ts.Rejected != 0 || ts.ActiveStreams != 0 {
			t.Fatalf("%s settled stats: %+v", tn, ts)
		}
	}
	if st.ActiveEngines != 2 || st.DefaultTenant != DefaultTenant {
		t.Fatalf("router stats: %+v", st)
	}
}

func TestClosedRouter(t *testing.T) {
	r := NewRouter(Options{})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.Submit(context.Background(), "", wivi.Request{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestBudgetDefaultsMirrorEngine(t *testing.T) {
	b := Budget{}.withDefaults()
	w := runtime.GOMAXPROCS(0)
	wantStreams := w - 1
	if wantStreams < 1 {
		wantStreams = 1
	}
	if b.Workers != w || b.QueueDepth != 2*w || b.MaxStreams != wantStreams {
		t.Fatalf("defaults = %+v", b)
	}
	if got := b.maxInflight(); got != b.Workers+b.QueueDepth {
		t.Fatalf("maxInflight = %d", got)
	}
}

// TestEndToEndRealEngines runs real captures through the router: two
// tenants, each with its own engine and same-seed replica devices, and
// verifies per-tenant wire identity — tenant a's replica captures are
// bit-identical to tenant b's, because isolation hands every tenant
// fresh same-seed devices.
func TestEndToEndRealEngines(t *testing.T) {
	newDevices := func(tenant string) (map[string]*wivi.Device, error) {
		sc := wivi.NewScene(wivi.SceneOptions{Seed: 7})
		if err := sc.AddWalker(3); err != nil {
			return nil, err
		}
		dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{})
		if err != nil {
			return nil, err
		}
		return map[string]*wivi.Device{"dev0": dev}, nil
	}
	r := NewRouter(Options{
		Budget:  Budget{Workers: 2},
		Tenants: []string{"a", "b"},
		Devices: newDevices,
	})
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	results := make(map[string]*wivi.TrackingResult)
	for _, tn := range []string{"a", "b"} {
		_, devs, err := r.Devices(tn)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Submit(context.Background(), tn, wivi.Request{Device: devs["dev0"], Duration: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		results[tn] = res.Tracking
	}
	if !results["a"].Equal(results["b"]) {
		t.Fatal("same-seed captures differ across tenants — per-tenant isolation broke determinism")
	}
	st := r.Stats()
	for _, tn := range []string{"a", "b"} {
		ts := st.Tenants[tn]
		if ts.Submitted != 1 || ts.Engine.Completed != 1 {
			t.Fatalf("%s stats: submitted=%d completed=%d", tn, ts.Submitted, ts.Engine.Completed)
		}
	}
}

// TestNoGoroutineLeaks pins the release-goroutine discipline: after a
// burst of mixed submits and a full Close, the process returns to its
// goroutine baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		r, f := newFakeRouter(t, Options{
			Budget:  Budget{Workers: 4, QueueDepth: 16, MaxStreams: 2},
			Tenants: []string{"a", "b"},
		})
		for i := 0; i < 8; i++ {
			tn := []string{"a", "b"}[i%2]
			if _, err := r.Submit(context.Background(), tn, wivi.Request{Stream: i%4 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range f.engines {
			e.finishAll()
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	settle(t, "goroutines back to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}

// TestJanitorSweepsOnClock drives the janitor loop itself (not just
// Sweep) with an auto-advancing FakeClock.
func TestJanitorSweepsOnClock(t *testing.T) {
	// autoAdvance > 0 makes every Sleep return after advancing the fake
	// time, so the janitor loop spins without wall-clock waits.
	clk := core.NewFakeClock(time.Unix(0, 0), true)
	r, f := newFakeRouter(t, Options{
		IdleTimeout: time.Millisecond,
		SweepEvery:  time.Second,
		Clock:       clk,
	})
	if _, err := r.Submit(context.Background(), "", wivi.Request{}); err != nil {
		t.Fatal(err)
	}
	eng := f.last()
	eng.finishAll()
	settle(t, "janitor eviction", func() bool { return eng.isClosed() })
	if got := r.Stats().Tenants[DefaultTenant].Evictions; got < 1 {
		t.Fatalf("evictions = %d, want >= 1", got)
	}
}

func TestTenantsSorted(t *testing.T) {
	r, _ := newFakeRouter(t, Options{Tenants: []string{"zeta", "alpha"}})
	got := r.Tenants()
	want := []string{"alpha", DefaultTenant, "zeta"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Tenants() = %v, want %v", got, want)
	}
}

// TestBackToBackStreamsAtMaxStreams is the regression test for spurious
// 429s at exactly MaxStreams: two closed-loop clients, each resubmitting
// a one-frame stream the moment its previous result arrives, must never
// find their own just-settled slot still taken. Freeing the slot only in
// Submit's settle goroutine, after Wait has returned, draws 499 refusals
// in these 1000 submits.
func TestBackToBackStreamsAtMaxStreams(t *testing.T) {
	const clients, perClient = 2, 500
	r := NewRouter(Options{
		Budget: Budget{Workers: clients, MaxStreams: clients},
		Devices: func(string) (map[string]*wivi.Device, error) {
			devs := map[string]*wivi.Device{}
			for i := 0; i < clients; i++ {
				sc := wivi.NewScene(wivi.SceneOptions{Seed: int64(i + 1)})
				if err := sc.AddWalker(1); err != nil {
					return nil, err
				}
				dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{FrameWorkers: 1})
				if err != nil {
					return nil, err
				}
				devs[fmt.Sprint("dev", i)] = dev
			}
			return devs, nil
		},
	})
	defer r.Close()
	_, devs, err := r.Devices("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var saturated atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		dev := devs[fmt.Sprint("dev", c)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				h, err := r.Submit(ctx, "", wivi.Request{Device: dev, Duration: 0.32, Stream: true})
				if errors.Is(err, ErrTenantSaturated) {
					saturated.Add(1)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				st, err := h.Stream(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				for range st.Frames() {
				}
				if _, err := h.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := saturated.Load(); n != 0 {
		t.Fatalf("%d of %d back-to-back streams refused with ErrTenantSaturated at MaxStreams %d", n, clients*perClient, clients)
	}
}
