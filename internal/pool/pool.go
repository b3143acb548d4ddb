// Package pool is the multi-tenant engine layer: a Router that owns one
// wivi.Engine per tenant and slots into the serve tier's submit path.
//
// A tenant is a fleet — one building's devices, one customer's
// deployment — and the Router's whole job is isolation between fleets:
//
//   - Every tenant gets its own engine, lazily created from a per-tenant
//     Budget (workers, queue depth, stream slots). One tenant's queue
//     never holds another tenant's requests.
//   - Admission is enforced at the router, before the engine is touched:
//     a tenant at its in-flight or stream budget gets the typed
//     ErrTenantSaturated immediately (the serve tier maps it to HTTP 429)
//     instead of blocking a shared queue. Saturating tenant A therefore
//     cannot add a microsecond of queue wait to tenant B.
//   - Devices are per-tenant too: the registry factory builds each
//     tenant its own replica set, so captures of different tenants never
//     serialize on a shared radio and the wire-identity invariant
//     (fresh same-seed replicas capture bit-identical data) holds within
//     each tenant independently.
//   - Tenants drain independently (DrainTenant) or together (Close),
//     both reusing Engine.Close semantics: in-flight work finishes, new
//     submits fail typed.
//   - Idle tenants are evicted on the core.Clock seam: a tenant with no
//     in-flight work for IdleTimeout has its engine closed and its
//     devices released (Sweep, or the janitor when SweepEvery is set).
//     The next request rebuilds both — eviction is invisible to clients
//     beyond a cold-start, and because rebuilt devices are fresh
//     same-seed replicas, determinism is preserved across evictions.
//
// All router wall-clock reads go through the injected core.Clock, so
// eviction tests drive a core.FakeClock and assert exact idle cutoffs.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"wivi"
	"wivi/internal/core"
)

// DefaultTenant is the tenant name used when a request names none —
// the back-compat tenant single-tenant deployments implicitly use.
const DefaultTenant = "default"

// Typed admission errors. Codes, not messages, are the contract: the
// serve tier maps each onto a stable HTTP status + error code.
var (
	// ErrTenantSaturated is returned by Submit when the tenant is at its
	// in-flight or stream budget. The request never touches the tenant's
	// engine, let alone any other tenant's (HTTP 429 "tenant_saturated").
	ErrTenantSaturated = errors.New("pool: tenant at its queue/stream budget")
	// ErrUnknownTenant is returned for tenant names outside the router's
	// allow-list (HTTP 404 "unknown_tenant").
	ErrUnknownTenant = errors.New("pool: unknown tenant")
	// ErrTenantDraining is returned by Submit while the tenant drains
	// (HTTP 503 "tenant_draining"). Once the drain completes the tenant
	// accepts work again on a fresh engine.
	ErrTenantDraining = errors.New("pool: tenant draining")
	// ErrClosed is returned after Close (HTTP 503 "engine_closed").
	ErrClosed = errors.New("pool: router closed")
)

// Budget sizes one tenant's engine and its admission caps. The zero
// value takes the engine defaults (one worker per CPU, queue 2×workers,
// streams workers−1). The router admits at most Workers+QueueDepth
// requests in flight per tenant — exactly the engine's capacity — so an
// admitted request never blocks on a full engine queue.
type Budget struct {
	// Workers is the tenant engine's worker pool size.
	Workers int `json:"workers"`
	// QueueDepth bounds the tenant's submit queue.
	QueueDepth int `json:"queue_depth"`
	// MaxStreams caps the tenant's concurrently admitted streams.
	MaxStreams int `json:"max_streams"`
}

// withDefaults mirrors the engine's own sizing (pipeline.Config) so the
// router's admission math and the engine's capacity agree exactly.
func (b Budget) withDefaults() Budget {
	if b.Workers <= 0 {
		b.Workers = runtime.GOMAXPROCS(0)
	}
	if b.QueueDepth <= 0 {
		b.QueueDepth = 2 * b.Workers
	}
	if b.MaxStreams <= 0 {
		b.MaxStreams = b.Workers - 1
		if b.MaxStreams < 1 {
			b.MaxStreams = 1
		}
	}
	return b
}

// maxInflight is the tenant's total admission cap: executing + queued.
func (b Budget) maxInflight() int { return b.Workers + b.QueueDepth }

// Options assembles a Router.
type Options struct {
	// Budget is the per-tenant engine budget; per-name overrides in
	// Budgets win. Zero fields take the engine defaults.
	Budget Budget
	// Budgets overrides the budget for specific tenants.
	Budgets map[string]Budget
	// Tenants is the allow-list of tenant names beyond DefaultTenant
	// (which is always allowed). Requests naming any other tenant fail
	// with ErrUnknownTenant — tenancy is provisioned, not open.
	Tenants []string
	// Devices builds one tenant's device registry on first use (and
	// again after an eviction). Nil means tenants have no devices —
	// callers then resolve devices themselves and pass them in requests.
	Devices func(tenant string) (map[string]*wivi.Device, error)
	// IdleTimeout evicts a tenant's engine and devices after this long
	// with nothing in flight; 0 disables eviction.
	IdleTimeout time.Duration
	// SweepEvery runs the eviction janitor at this cadence; 0 leaves
	// eviction to explicit Sweep calls (what deterministic tests use).
	SweepEvery time.Duration
	// Clock supplies wall time for idle accounting; nil means
	// core.RealClock(). Tests inject core.FakeClock.
	Clock core.Clock
}

// engineHandle abstracts *wivi.Handle so router tests can script
// requests that stay in flight deterministically.
type engineHandle interface {
	Wait(ctx context.Context) (*wivi.Result, error)
	Stream(ctx context.Context) (*wivi.TrackStream, error)
}

// tenantEngine abstracts *wivi.Engine for the same reason.
type tenantEngine interface {
	Submit(ctx context.Context, req wivi.Request) (engineHandle, error)
	Stats() wivi.EngineStats
	Close() error
}

// realEngine adapts *wivi.Engine onto the seam.
type realEngine struct{ eng *wivi.Engine }

func (r realEngine) Submit(ctx context.Context, req wivi.Request) (engineHandle, error) {
	h, err := r.eng.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (r realEngine) Stats() wivi.EngineStats { return r.eng.Stats() }

func (r realEngine) Close() error { return r.eng.Close() }

// tenant is one fleet's slot in the router. Its mutex guards only this
// tenant's state, so one tenant's expensive device build or engine spin
// never blocks another tenant's submit path.
type tenant struct {
	name   string
	budget Budget // effective: defaults applied

	mu      sync.Mutex
	eng     tenantEngine            // nil until first use and after eviction
	devices map[string]*wivi.Device // nil until first resolve and after eviction
	names   []string                // sorted device names
	// Admission accounting. inflight counts submitted-but-unsettled
	// requests (released when the request's result resolves); streams is
	// its streaming subset. Both are the router's own view — always ≥
	// the engine's occupancy, so admission here means no blocking there.
	inflight   int
	streams    int
	draining   bool
	drainDone  chan struct{} // closed when the active drain's inflight hits 0
	lastActive time.Time
	// Lifetime counters; they survive eviction (the engine's own Stats
	// reset with its engine — these are the tenant's, not the engine's).
	submitted int64
	rejected  int64
	evictions int64
}

// Router routes requests to per-tenant engines. Safe for concurrent
// use. Create with NewRouter, Close when done.
type Router struct {
	opts  Options
	clock core.Clock
	// newEngine is the engine factory seam: production builds
	// wivi.NewEngine, tests substitute scripted engines.
	newEngine func(Budget) tenantEngine

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewRouter builds a router over the allowed tenant set. Tenant slots
// exist from the start; their engines and devices are created on first
// use.
func NewRouter(opts Options) *Router {
	clock := opts.Clock
	if clock == nil {
		clock = core.RealClock()
	}
	r := &Router{
		opts:      opts,
		clock:     clock,
		newEngine: func(b Budget) tenantEngine { return realEngine{wivi.NewEngine(wivi.EngineOptions(b))} },
		tenants:   make(map[string]*tenant),
	}
	now := clock.Now()
	add := func(name string) {
		if _, ok := r.tenants[name]; ok {
			return
		}
		b := opts.Budget
		if ob, ok := opts.Budgets[name]; ok {
			b = ob
		}
		r.tenants[name] = &tenant{name: name, budget: b.withDefaults(), lastActive: now}
	}
	add(DefaultTenant)
	for _, name := range opts.Tenants {
		add(name)
	}
	if opts.IdleTimeout > 0 && opts.SweepEvery > 0 {
		r.janitorStop = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor()
	}
	return r
}

// janitor sweeps idle tenants at the configured cadence, on the clock
// seam so FakeClock tests can drive it (deterministic tests call Sweep
// directly instead).
func (r *Router) janitor() {
	defer close(r.janitorDone)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-r.janitorStop
		cancel()
	}()
	for {
		if err := r.clock.Sleep(ctx, r.opts.SweepEvery); err != nil {
			return
		}
		r.Sweep()
	}
}

// tenantFor resolves a tenant name ("" means DefaultTenant) against the
// allow-list.
func (r *Router) tenantFor(name string) (*tenant, error) {
	if name == "" {
		name = DefaultTenant
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t, nil
}

// DefaultName returns the router's default tenant name.
func (r *Router) DefaultName() string { return DefaultTenant }

// Tenants returns the allowed tenant names, sorted.
func (r *Router) Tenants() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// ensureEngineLocked instantiates the tenant's engine if needed. Caller
// holds t.mu.
func (t *tenant) ensureEngineLocked(r *Router) {
	if t.eng == nil {
		t.eng = r.newEngine(t.budget)
	}
}

// Handle is the future of a routed request: a thin wrapper over the
// tenant engine's handle that remembers which tenant served it.
type Handle struct {
	tenant string
	inner  engineHandle
	// release returns the request's budget slot; it runs once, from Wait
	// or from Submit's settle goroutine, whichever sees the request
	// settle first.
	release func()
}

// Tenant names the tenant whose engine runs the request.
func (h *Handle) Tenant() string { return h.tenant }

// Wait joins the request's result (wivi.Handle.Wait semantics). Once the
// request has settled, its budget slot is free before Wait returns, so a
// closed-loop client that resubmits as soon as it has its result finds
// the slot it just used available. A Wait cut short by ctx leaves the
// slot to the request's own settling.
func (h *Handle) Wait(ctx context.Context) (*wivi.Result, error) {
	res, err := h.inner.Wait(ctx)
	if err == nil || ctx.Err() == nil {
		// The inner Wait returns early only when ctx ends, so either way
		// the request has settled.
		h.release()
	}
	return res, err
}

// Stream returns the live frame stream of a Stream request
// (wivi.Handle.Stream semantics).
func (h *Handle) Stream(ctx context.Context) (*wivi.TrackStream, error) { return h.inner.Stream(ctx) }

// Submit routes one request to its tenant's engine. Admission is
// decided here, against the tenant's own budget only:
//
//   - unknown tenant        → ErrUnknownTenant
//   - tenant draining       → ErrTenantDraining
//   - at in-flight budget   → ErrTenantSaturated
//   - stream at stream cap  → ErrTenantSaturated
//
// An admitted request is handed to the tenant's engine, which by
// construction has capacity for it (the in-flight budget equals the
// engine's workers+queue), so Submit never blocks on engine backpressure
// — saturation is always the typed error, never a stall.
func (r *Router) Submit(ctx context.Context, tenantName string, req wivi.Request) (*Handle, error) {
	t, err := r.tenantFor(tenantName)
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	if t.draining {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantDraining, t.name)
	}
	if t.inflight >= t.budget.maxInflight() || (req.Stream && t.streams >= t.budget.MaxStreams) {
		t.rejected++
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantSaturated, t.name)
	}
	t.ensureEngineLocked(r)
	t.inflight++
	if req.Stream {
		t.streams++
	}
	t.submitted++
	t.lastActive = r.clock.Now()
	eng := t.eng
	t.mu.Unlock()

	h, err := eng.Submit(ctx, req)
	if err != nil {
		t.release(r, req.Stream)
		return nil, err
	}
	// The budget slot is released when the request settles — not when
	// the caller happens to consume it — so an abandoned handle can't
	// pin admission capacity. Wait joins the same settled state for
	// batch and streaming requests alike, and completed work is never
	// discarded, so this goroutine always terminates with the request.
	// Handle.Wait releases the same slot synchronously when its caller
	// joins the settled request first; the Once makes that a no-op here.
	var once sync.Once
	release := func() { once.Do(func() { t.release(r, req.Stream) }) }
	go func() {
		_, _ = h.Wait(context.Background())
		release()
	}()
	return &Handle{tenant: t.name, inner: h, release: release}, nil
}

// release returns one admission slot and wakes a drain waiting on idle.
func (t *tenant) release(r *Router, stream bool) {
	t.mu.Lock()
	t.inflight--
	if stream {
		t.streams--
	}
	t.lastActive = r.clock.Now()
	if t.draining && t.inflight == 0 && t.drainDone != nil {
		close(t.drainDone)
		t.drainDone = nil
	}
	t.mu.Unlock()
}

// Devices resolves one tenant's device registry, building it through
// the factory on first use (and after an eviction). The returned map is
// the live registry — callers must not mutate it.
func (r *Router) Devices(tenantName string) (names []string, devices map[string]*wivi.Device, err error) {
	t, err := r.tenantFor(tenantName)
	if err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return nil, nil, fmt.Errorf("%w: %q", ErrTenantDraining, t.name)
	}
	if t.devices == nil && r.opts.Devices != nil {
		devs, err := r.opts.Devices(t.name)
		if err != nil {
			return nil, nil, fmt.Errorf("pool: building devices for tenant %q: %w", t.name, err)
		}
		t.devices = devs
		t.names = t.names[:0]
		for name := range devs {
			t.names = append(t.names, name)
		}
		sort.Strings(t.names)
		t.lastActive = r.clock.Now()
	}
	return t.names, t.devices, nil
}

// DrainTenant gracefully drains one tenant: new submits fail with
// ErrTenantDraining, in-flight requests (streams included) run to
// completion, then the tenant's engine is closed and its devices
// released. The tenant slot itself survives — the next Submit rebuilds
// engine and devices fresh, which is how a tenant is recycled in place.
// Concurrent drains of one tenant join the same completion.
func (r *Router) DrainTenant(ctx context.Context, tenantName string) error {
	t, err := r.tenantFor(tenantName)
	if err != nil {
		return err
	}
	return r.drain(ctx, t)
}

func (r *Router) drain(ctx context.Context, t *tenant) error {
	t.mu.Lock()
	if !t.draining {
		t.draining = true
		if t.inflight > 0 {
			t.drainDone = make(chan struct{})
		}
	}
	done := t.drainDone // nil means already idle
	t.mu.Unlock()

	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			// The drain stays pending (draining=true keeps refusing
			// submits); the caller retries or abandons the tenant.
			return ctx.Err()
		}
	}

	t.mu.Lock()
	eng := t.eng
	t.eng = nil
	t.devices = nil
	t.names = nil
	t.draining = false
	t.lastActive = r.clock.Now()
	t.mu.Unlock()
	if eng != nil {
		_ = eng.Close()
	}
	return nil
}

// Sweep evicts every tenant whose engine has sat idle — nothing in
// flight — for at least IdleTimeout on the router's clock. In-flight
// work (a live stream, a queued batch) blocks eviction by definition:
// inflight is only zero once every admitted request has settled. Returns
// the number of tenants evicted.
func (r *Router) Sweep() int {
	if r.opts.IdleTimeout <= 0 {
		return 0
	}
	now := r.clock.Now()
	evicted := 0
	for _, t := range r.snapshotTenants() {
		t.mu.Lock()
		idle := t.eng != nil && !t.draining && t.inflight == 0 &&
			now.Sub(t.lastActive) >= r.opts.IdleTimeout
		var eng tenantEngine
		if idle {
			eng = t.eng
			t.eng = nil
			t.devices = nil
			t.names = nil
			t.evictions++
		}
		t.mu.Unlock()
		if eng != nil {
			_ = eng.Close()
			evicted++
		}
	}
	return evicted
}

func (r *Router) snapshotTenants() []*tenant {
	r.mu.Lock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close drains the whole pool: the router stops accepting submits
// (ErrClosed), every tenant drains in place, and the janitor stops.
// Idempotent; blocks until every tenant engine has shut down.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if r.janitorDone != nil {
			<-r.janitorDone
		}
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	if r.janitorStop != nil {
		close(r.janitorStop)
		<-r.janitorDone
	}
	for _, t := range r.snapshotTenants() {
		_ = r.drain(context.Background(), t)
	}
	return nil
}

// TenantStats is one tenant's slice of Stats. Engine is the zero value
// while the tenant has no live engine (never used, drained, or
// evicted); the lifetime counters are the router's own and survive all
// three.
type TenantStats struct {
	// Tenant is the tenant name.
	Tenant string `json:"tenant"`
	// Active reports whether the tenant currently holds a live engine.
	Active bool `json:"active"`
	// Draining reports an in-progress DrainTenant.
	Draining bool `json:"draining"`
	// InFlight counts admitted-but-unsettled requests; ActiveStreams is
	// the streaming subset. Both are the router's admission view.
	InFlight      int `json:"in_flight"`
	ActiveStreams int `json:"active_streams"`
	// Budget is the tenant's effective engine budget.
	Budget Budget `json:"budget"`
	// Submitted counts admitted requests; Rejected counts typed
	// saturation rejections (the 429 series); Evictions counts idle
	// engine evictions. All lifetime.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Evictions int64 `json:"evictions"`
	// Engine is the live engine's Stats() snapshot (zero when !Active).
	Engine wivi.EngineStats `json:"engine"`
}

// Stats is the router-wide snapshot: one TenantStats per allowed
// tenant, keyed by name.
type Stats struct {
	// DefaultTenant names the tenant unlabeled requests route to.
	DefaultTenant string `json:"default_tenant"`
	// ActiveEngines counts tenants with a live engine right now.
	ActiveEngines int `json:"active_engines"`
	// Tenants maps tenant name to its snapshot.
	Tenants map[string]TenantStats `json:"tenants"`
}

// Stats snapshots every tenant. Per-tenant counters settle exactly:
// once a tenant's InFlight reads zero, Submitted equals its engine's
// Completed+Failed for work routed since the engine was (re)built.
func (r *Router) Stats() Stats {
	st := Stats{DefaultTenant: DefaultTenant, Tenants: make(map[string]TenantStats)}
	for _, t := range r.snapshotTenants() {
		t.mu.Lock()
		ts := TenantStats{
			Tenant:        t.name,
			Active:        t.eng != nil,
			Draining:      t.draining,
			InFlight:      t.inflight,
			ActiveStreams: t.streams,
			Budget:        t.budget,
			Submitted:     t.submitted,
			Rejected:      t.rejected,
			Evictions:     t.evictions,
		}
		eng := t.eng
		t.mu.Unlock()
		if eng != nil {
			// Engine stats are read outside the tenant lock: Stats() is
			// itself synchronized, and a concurrent eviction at worst hands
			// us a just-closed engine's final counters.
			ts.Engine = eng.Stats()
			st.ActiveEngines++
		}
		st.Tenants[t.name] = ts
	}
	return st
}

// TenantStats returns one tenant's snapshot.
func (r *Router) TenantStats(tenantName string) (TenantStats, error) {
	t, err := r.tenantFor(tenantName)
	if err != nil {
		return TenantStats{}, err
	}
	st := r.Stats()
	return st.Tenants[t.name], nil
}
