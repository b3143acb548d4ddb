package serve

// The wivi-serve HTTP tier: a stdlib-only daemon fronting a
// pool.Router. A single-tenant server is a Router that has only the
// default tenant.
//
// Endpoint map:
//
//	POST /v1/track    submit one capture; JSON response, or NDJSON
//	                  frame stream (flush-per-frame) when Stream is set
//	GET  /v1/devices  the tenant's device names + the duration cap
//	GET  /v1/stats    engine, serve and pool counters as JSON
//	                  (?tenant= narrows to one tenant)
//	GET  /metrics     the same figures in Prometheus text format,
//	                  every engine and pool series tenant-labelled
//	GET  /healthz     liveness (503 once draining)
//
// The tier adds no processing of its own — frames cross the wire as the
// exact float64 values the engine emitted (see wire.go), so the
// batch/stream byte-identity invariant extends across serialization.
// Admission control is the pool's: an infeasible Request.Deadline
// surfaces as HTTP 503 "deadline_infeasible" before the capture consumes
// a worker, and a tenant at its own budget gets 429 "tenant_saturated"
// without its request ever touching another tenant's engine. The tenant
// is resolved from the request ("tenant" body field, X-Wivi-Tenant
// header as fallback; empty means the default tenant) and echoed on
// every response. Graceful drain (Drain) rejects new requests with 503
// "draining" while in-flight streams run to their final frame, mirroring
// Engine.Close semantics one layer up.
//
// Every wall-clock read goes through the injected core.Clock, so the
// request-timeout and latency-accounting paths run deterministically
// under core.FakeClock in tests.

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/pool"
)

// errRequestTimeout marks a request context canceled by the server's
// own request timeout (vs. by the client disconnecting).
var errRequestTimeout = errors.New("serve: request timeout")

// statusClientClosedRequest is nginx's conventional status for "the
// client went away before we could answer" — never seen by that client,
// but it keeps the requests-by-code counters honest.
const statusClientClosedRequest = 499

// maxTrackBodyBytes bounds a /v1/track request body. A TrackRequest is
// a few hundred bytes; anything past this cap answers 413
// "request_too_large" before the server buffers more of it.
const maxTrackBodyBytes = 8 << 10

// maxDeadlineMs is the largest deadline_ms a time.Duration holds; a
// larger value would overflow into a negative Request.Deadline.
const maxDeadlineMs = float64(math.MaxInt64 / int64(time.Millisecond))

// DefaultMaxDurationS is the per-request capture cap, in seconds, of a
// server whose Config leaves MaxDurationS zero.
const DefaultMaxDurationS = 10

// Config assembles a Server.
type Config struct {
	// Pool routes requests to per-tenant engines and owns each tenant's
	// device registry. Required.
	Pool *pool.Router
	// MaxDurationS caps per-request capture length in seconds; 0 means
	// DefaultMaxDurationS. Every server has a cap.
	MaxDurationS float64
	// RequestTimeout bounds one request's handler time; 0 disables it.
	// Expired requests answer 504 "timeout" (or a terminal NDJSON error
	// event when frames were already flushed).
	RequestTimeout time.Duration
	// Clock supplies wall time; nil means core.RealClock(). Tests inject
	// core.FakeClock to drive timeouts and latency stamps exactly.
	Clock core.Clock
}

// Server is the HTTP front end. Create with New, mount anywhere (it
// implements http.Handler), and Drain before process exit.
type Server struct {
	cfg   Config
	clock core.Clock
	mux   *http.ServeMux
	m     metrics

	// submit is the backend seam: production wraps Pool.Submit, tests
	// substitute scripted handles. tenant is the resolved tenant name.
	submit func(ctx context.Context, tenant string, req wivi.Request) (handle, error)

	// drain state: requests register while executing; Drain flips
	// draining and waits for the count to reach zero.
	drain drainGate
}

// handle abstracts *pool.Handle for handler tests.
type handle interface {
	Wait(ctx context.Context) (*wivi.Result, error)
	Stream(ctx context.Context) (frameStream, error)
}

// frameStream abstracts *wivi.TrackStream for handler tests.
type frameStream interface {
	Next() (wivi.StreamFrame, bool)
	Err() error
	TotalFrames() int
	WindowDuration() time.Duration
}

// poolHandle adapts *pool.Handle to the handle seam.
type poolHandle struct{ h *pool.Handle }

func (p poolHandle) Wait(ctx context.Context) (*wivi.Result, error) { return p.h.Wait(ctx) }

func (p poolHandle) Stream(ctx context.Context) (frameStream, error) { return p.h.Stream(ctx) }

// New builds a Server over a tenant-routing pool; Config.Pool is
// required.
func New(cfg Config) (*Server, error) {
	router := cfg.Pool
	if router == nil {
		return nil, errors.New("serve: Config.Pool is required")
	}
	if cfg.MaxDurationS == 0 {
		cfg.MaxDurationS = DefaultMaxDurationS
	}
	if !(cfg.MaxDurationS > 0) || math.IsInf(cfg.MaxDurationS, 1) {
		return nil, fmt.Errorf("serve: Config.MaxDurationS %g is not a finite positive cap", cfg.MaxDurationS)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = core.RealClock()
	}
	s := &Server{cfg: cfg, clock: clock, mux: http.NewServeMux()}
	s.submit = func(ctx context.Context, tenant string, req wivi.Request) (handle, error) {
		h, err := router.Submit(ctx, tenant, req)
		if err != nil {
			return nil, err
		}
		return poolHandle{h}, nil
	}
	s.drain.idle = make(chan struct{})
	s.mux.HandleFunc("POST /v1/track", s.handleTrack)
	s.mux.HandleFunc("GET /v1/devices", s.handleDevices)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP dispatches to the endpoint map.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// drainGate counts executing requests and refuses new ones once the
// server drains. A mutex'd counter (not a WaitGroup) because requests
// must observe the draining flag and register atomically — WaitGroup's
// Add-after-Wait is a race.
type drainGate struct {
	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}
	closed   bool
}

func (g *drainGate) begin() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

func (g *drainGate) end() {
	g.mu.Lock()
	g.inflight--
	if g.draining && g.inflight == 0 && !g.closed {
		g.closed = true
		close(g.idle)
	}
	g.mu.Unlock()
}

func (g *drainGate) startDrain() {
	g.mu.Lock()
	g.draining = true
	if g.inflight == 0 && !g.closed {
		g.closed = true
		close(g.idle)
	}
	g.mu.Unlock()
}

// Drain flips the server into draining mode — every subsequent /v1/track
// gets 503 "draining" — and blocks until in-flight requests (streams
// included) have finished or ctx expires. Idempotent; the engine itself
// is not closed (that is the owner's next step after Drain returns).
func (s *Server) Drain(ctx context.Context) error {
	s.drain.startDrain()
	select {
	case <-s.drain.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.drain.mu.Lock()
	defer s.drain.mu.Unlock()
	return s.drain.draining
}

func (s *Server) activeRequests() int {
	s.drain.mu.Lock()
	defer s.drain.mu.Unlock()
	return s.drain.inflight
}

// writeJSON writes v as the complete response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes the typed error body.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, status int, code, msg string) {
	s.m.countRequest(endpoint, status)
	writeJSON(w, status, ErrorResponse{Err: ErrorBody{Code: code, Message: msg}})
}

// mapError translates a submit/wait/stream error into (status, code).
// timedOut and clientGone disambiguate context cancellation: the
// server's own timeout answers 504, a vanished client books as 499.
func mapError(err error, timedOut, clientGone bool) (int, string) {
	switch {
	case errors.Is(err, pool.ErrTenantSaturated):
		return http.StatusTooManyRequests, CodeTenantSaturated
	case errors.Is(err, pool.ErrUnknownTenant):
		return http.StatusNotFound, CodeUnknownTenant
	case errors.Is(err, pool.ErrClosed):
		return http.StatusServiceUnavailable, CodeEngineClosed
	case errors.Is(err, wivi.ErrDeadlineInfeasible):
		return http.StatusServiceUnavailable, CodeDeadlineInfeasible
	case errors.Is(err, wivi.ErrEngineClosed):
		return http.StatusServiceUnavailable, CodeEngineClosed
	case errors.Is(err, core.ErrShortCapture):
		return http.StatusBadRequest, CodeBadRequest
	case timedOut:
		return http.StatusGatewayTimeout, CodeTimeout
	case clientGone || errors.Is(err, context.Canceled):
		return statusClientClosedRequest, CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeTimeout
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// resolveTenant extracts the tenant a request names: the body field (or
// query parameter) first, then the X-Wivi-Tenant header; "" when it
// names none.
func resolveTenant(r *http.Request, named string) string {
	if named == "" {
		named = r.Header.Get(HeaderTenant)
	}
	return named
}

// handleTrack serves POST /v1/track: decode, resolve the tenant, admit,
// submit, then either join the batch result or stream frames as NDJSON.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/track"
	start := s.clock.Now()
	defer func() { s.m.requestLatency.Observe(s.clock.Now().Sub(start)) }()

	if !s.drain.begin() {
		s.writeError(w, endpoint, http.StatusServiceUnavailable, CodeDraining,
			"server is draining; retry against another replica")
		return
	}
	defer s.drain.end()

	var req TrackRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTrackBodyBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, endpoint, http.StatusRequestEntityTooLarge, CodeRequestTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxTrackBodyBytes))
			return
		}
		s.writeError(w, endpoint, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("decoding request body: %v", err))
		return
	}
	if req.DurationS <= 0 {
		s.writeError(w, endpoint, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("duration_s must be positive, got %g", req.DurationS))
		return
	}
	if req.DurationS > s.cfg.MaxDurationS {
		s.writeError(w, endpoint, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("duration_s %g exceeds the server cap %g", req.DurationS, s.cfg.MaxDurationS))
		return
	}
	var mode wivi.Mode
	switch req.Mode {
	case "", ModeTrack:
		mode = wivi.Track
	case ModeGesture:
		mode = wivi.Gesture
	default:
		s.writeError(w, endpoint, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown mode %q (want %q or %q)", req.Mode, ModeTrack, ModeGesture))
		return
	}
	if req.DeadlineMs < 0 || req.DeadlineMs > maxDeadlineMs {
		s.writeError(w, endpoint, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("deadline_ms must be in [0, %g], got %g", maxDeadlineMs, req.DeadlineMs))
		return
	}
	tenant := cmp.Or(resolveTenant(r, req.Tenant), pool.DefaultTenant)
	names, devs, err := s.cfg.Pool.Devices(tenant)
	if err != nil {
		status, code := mapError(err, false, false)
		s.writeError(w, endpoint, status, code, fmt.Sprintf("resolving tenant devices: %v", err))
		return
	}
	name := req.Device
	if name == "" && len(names) > 0 {
		name = names[0]
	}
	dev := devs[name]
	if dev == nil {
		s.writeError(w, endpoint, http.StatusNotFound, CodeUnknownDevice,
			fmt.Sprintf("device %q is not registered", name))
		return
	}

	// The request context with the server's own timeout layered on via
	// the clock seam. The deadline is fixed against the handler's start
	// instant, so a FakeClock Advance that lands before the sleeper reads
	// the clock still fires it exactly (Sleep of a non-positive remainder
	// returns immediately). One that lands between that read and the
	// Sleep would push the wake instant a full timeout later, so tests
	// advance only once the sleeper has parked (FakeClock.AwaitSleepers).
	ctx := r.Context()
	timedOut := func() bool { return false }
	if s.cfg.RequestTimeout > 0 {
		tctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		deadline := start.Add(s.cfg.RequestTimeout)
		go func() {
			if s.clock.Sleep(tctx, deadline.Sub(s.clock.Now())) == nil {
				cancel(errRequestTimeout)
			}
		}()
		ctx = tctx
		timedOut = func() bool { return errors.Is(context.Cause(tctx), errRequestTimeout) }
	}
	clientGone := func() bool { return r.Context().Err() != nil && !timedOut() }

	h, err := s.submit(ctx, tenant, wivi.Request{
		Device:   dev,
		Duration: req.DurationS,
		Mode:     mode,
		Stream:   req.Stream,
		Deadline: time.Duration(req.DeadlineMs * float64(time.Millisecond)),
	})
	if err != nil {
		status, code := mapError(err, timedOut(), clientGone())
		s.writeError(w, endpoint, status, code, fmt.Sprintf("submitting request: %v", err))
		return
	}

	if req.Stream {
		s.serveStream(w, ctx, endpoint, tenant, name, req.Mode, h, timedOut, clientGone)
		return
	}

	res, err := h.Wait(ctx)
	if err != nil {
		status, code := mapError(err, timedOut(), clientGone())
		s.writeError(w, endpoint, status, code, fmt.Sprintf("waiting for result: %v", err))
		return
	}
	s.m.countRequest(endpoint, http.StatusOK)
	writeJSON(w, http.StatusOK, s.trackResponse(tenant, name, req.Mode, res, 0))
}

// trackResponse assembles the wire result. windowMs is carried only by
// streamed responses (batch clients have no frame-lag SLO to hold it
// against).
func (s *Server) trackResponse(tenant, device, mode string, res *wivi.Result, windowMs float64) *TrackResponse {
	if mode == "" {
		mode = ModeTrack
	}
	out := &TrackResponse{
		Tenant:      tenant,
		Device:      device,
		Mode:        mode,
		WindowMs:    windowMs,
		QueueWaitMs: float64(res.QueueWait) / float64(time.Millisecond),
	}
	if res.Tracking != nil {
		out.NumFrames = res.Tracking.NumFrames()
	}
	if res.Message != nil {
		out.Message = &MessageResponse{
			Bits:     res.Message.String(),
			SNRsDB:   res.Message.SNRsDB,
			Erasures: res.Message.Erasures,
			Steps:    res.Message.Steps,
		}
	}
	return out
}

// serveStream writes the NDJSON frame stream: a 200 header up front,
// then one StreamEvent per line, flushed per frame so the client's
// heatmap accrues live. Errors after the first byte, a frame holding a
// value JSON cannot carry among them, become the terminal "error"
// event — the only channel left once the status line is gone.
func (s *Server) serveStream(w http.ResponseWriter, ctx context.Context, endpoint, tenant, device, mode string,
	h handle, timedOut, clientGone func() bool) {
	fs, err := h.Stream(ctx)
	if err != nil {
		status, code := mapError(err, timedOut(), clientGone())
		s.writeError(w, endpoint, status, code, fmt.Sprintf("opening stream: %v", err))
		return
	}

	s.m.activeStreams.Add(1)
	defer s.m.activeStreams.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	emit := func(ev StreamEvent) {
		_ = enc.Encode(ev)
		flush()
	}

	// Frame lines are appended into one buffer, reused for the whole
	// stream (codec.go); the terminal event goes through encoding/json.
	var line []byte
	nframes := 0
	for {
		fr, ok := fs.Next()
		if !ok {
			break
		}
		var err error
		line, err = appendFrameEvent(line[:0], &Frame{
			Index: fr.Index,
			TimeS: fr.Time,
			Power: fr.Power,
			LagMs: float64(fr.Lag) / float64(time.Millisecond),
		})
		if err != nil {
			s.m.countRequest(endpoint, http.StatusInternalServerError)
			emit(StreamEvent{Type: EventError, Err: &ErrorBody{
				Code:    CodeInternal,
				Message: fmt.Sprintf("stream failed after %d frames: %v", nframes, err),
			}})
			return
		}
		nframes++
		s.m.framesStreamed.Add(1)
		s.m.frameLag.Observe(fr.Lag)
		// A failed write means the client is gone, which cancels ctx
		// and so ends the stream on its own.
		_, _ = w.Write(line)
		flush()
	}

	if err := fs.Err(); err != nil {
		status, code := mapError(err, timedOut(), clientGone())
		s.m.countRequest(endpoint, status)
		emit(StreamEvent{Type: EventError, Err: &ErrorBody{
			Code:    code,
			Message: fmt.Sprintf("stream failed after %d frames: %v", nframes, err),
		}})
		return
	}
	res, err := h.Wait(ctx)
	if err != nil {
		status, code := mapError(err, timedOut(), clientGone())
		s.m.countRequest(endpoint, status)
		emit(StreamEvent{Type: EventError, Err: &ErrorBody{
			Code:    code,
			Message: fmt.Sprintf("assembling result: %v", err),
		}})
		return
	}
	resp := s.trackResponse(tenant, device, mode, res, float64(fs.WindowDuration())/float64(time.Millisecond))
	if resp.NumFrames == 0 {
		resp.NumFrames = nframes
	}
	s.m.countRequest(endpoint, http.StatusOK)
	emit(StreamEvent{Type: EventResult, Result: resp})
}

// handleDevices serves GET /v1/devices: the registry of the tenant the
// ?tenant= parameter (or header) names, built on first use like on the
// submit path.
func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/devices"
	tenant := cmp.Or(resolveTenant(r, r.URL.Query().Get("tenant")), pool.DefaultTenant)
	names, _, err := s.cfg.Pool.Devices(tenant)
	if err != nil {
		status, code := mapError(err, false, false)
		s.writeError(w, endpoint, status, code, fmt.Sprintf("resolving tenant devices: %v", err))
		return
	}
	s.m.countRequest(endpoint, http.StatusOK)
	writeJSON(w, http.StatusOK, DevicesResponse{
		Tenant:       tenant,
		Devices:      append([]string(nil), names...),
		MaxDurationS: s.cfg.MaxDurationS,
	})
}

// handleStats serves GET /v1/stats: the pool snapshot, the serve tier's
// own counters, and in Engine the default tenant's engine. ?tenant= (or
// the header) moves Engine to that tenant and narrows Pool to it alone.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/stats"
	named := resolveTenant(r, r.URL.Query().Get("tenant"))
	focus := cmp.Or(named, pool.DefaultTenant)
	st := s.cfg.Pool.Stats()
	ts, ok := st.Tenants[focus]
	if !ok {
		s.writeError(w, endpoint, http.StatusNotFound, CodeUnknownTenant,
			fmt.Sprintf("tenant %q is not provisioned", focus))
		return
	}
	if named != "" {
		st.Tenants = map[string]pool.TenantStats{focus: ts}
		st.ActiveEngines = 0
		if ts.Active {
			st.ActiveEngines = 1
		}
	}
	s.m.countRequest(endpoint, http.StatusOK)
	writeJSON(w, http.StatusOK, StatsResponse{Engine: ts.Engine, Serve: s.serveStats(), Pool: st})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.countRequest("/metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeProm(w)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once
// draining, so load balancers stop routing before shutdown completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, "/healthz", http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	s.m.countRequest("/healthz", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
