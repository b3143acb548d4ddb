package serve

// Serve-tier observability. The server keeps its own handler-level
// counters (requests by endpoint and status, handler latency, streamed
// frame lag) in the same bounded-reservoir recorders the engine uses
// (pipeline.LatencyRecorder), so every layer of the stack reports
// identical percentile math. GET /v1/stats returns the JSON form; GET
// /metrics renders the same figures — plus every tenant engine's
// Stats() and the pool's routing counters — in Prometheus text
// exposition format.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wivi"
	"wivi/internal/pipeline"
	"wivi/internal/pool"
)

// metrics aggregates the serve tier's own counters.
type metrics struct {
	mu       sync.Mutex
	requests map[requestKey]int64

	activeStreams  atomic.Int64
	framesStreamed atomic.Int64

	requestLatency pipeline.LatencyRecorder
	frameLag       pipeline.LatencyRecorder
}

// requestKey labels one requests-counter cell.
type requestKey struct {
	endpoint string
	code     int
}

func (m *metrics) countRequest(endpoint string, code int) {
	m.mu.Lock()
	if m.requests == nil {
		m.requests = make(map[requestKey]int64)
	}
	m.requests[requestKey{endpoint, code}]++
	m.mu.Unlock()
}

// requestCounts snapshots the requests counter in deterministic order.
func (m *metrics) requestCounts() ([]requestKey, []int64) {
	m.mu.Lock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	counts := make([]int64, len(keys))
	m.mu.Lock()
	for i, k := range keys {
		counts[i] = m.requests[k]
	}
	m.mu.Unlock()
	return keys, counts
}

// profile converts the recorder snapshot into the public latency shape.
func profile(s pipeline.LatencyStats) wivi.LatencyProfile {
	return wivi.LatencyProfile{Count: s.Count, P50: s.P50, P95: s.P95, P99: s.P99}
}

// ServeStats is the serve tier's own half of GET /v1/stats.
type ServeStats struct {
	// Draining reports whether the server has begun its graceful drain.
	Draining bool `json:"draining"`
	// ActiveRequests counts /v1/track handlers currently executing;
	// ActiveStreams is their streaming subset.
	ActiveRequests int `json:"active_requests"`
	ActiveStreams  int `json:"active_streams"`
	// FramesStreamed counts frames written to clients over the wire.
	FramesStreamed int64 `json:"frames_streamed"`
	// RequestLatency distributes /v1/track handler latency (receipt to
	// final byte, every outcome); FrameLag distributes the engine lag of
	// frames at the moment the server wrote them to the wire.
	RequestLatency wivi.LatencyProfile `json:"request_latency"`
	FrameLag       wivi.LatencyProfile `json:"frame_lag"`
	// RequestsByCode counts finished requests per "endpoint code" pair,
	// e.g. "/v1/track 200".
	RequestsByCode map[string]int64 `json:"requests_by_code,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Engine is the Stats() snapshot of the default tenant's engine, or
	// of the ?tenant=-selected tenant's.
	Engine wivi.EngineStats `json:"engine"`
	// Serve is the HTTP tier's own counters.
	Serve ServeStats `json:"serve"`
	// Pool is the per-tenant snapshot (only the selected tenant's slice
	// under ?tenant=).
	Pool pool.Stats `json:"pool"`
}

// serveStats snapshots the tier for /v1/stats.
func (s *Server) serveStats() ServeStats {
	st := ServeStats{
		Draining:       s.Draining(),
		ActiveRequests: s.activeRequests(),
		ActiveStreams:  int(s.m.activeStreams.Load()),
		FramesStreamed: s.m.framesStreamed.Load(),
		RequestLatency: profile(s.m.requestLatency.Snapshot()),
		FrameLag:       profile(s.m.frameLag.Snapshot()),
	}
	keys, counts := s.m.requestCounts()
	if len(keys) > 0 {
		st.RequestsByCode = make(map[string]int64, len(keys))
		for i, k := range keys {
			st.RequestsByCode[fmt.Sprintf("%s %d", k.endpoint, k.code)] = counts[i]
		}
	}
	return st
}

// writeProm renders the engine, pool and serve figures in Prometheus
// text exposition format (version 0.0.4): counters as *_total, quantile
// summaries for every latency dimension, durations in seconds. The
// engine and pool series carry one {tenant="..."} sample per tenant
// (HELP/TYPE once, Prometheus's canonical multi-series shape; an
// evicted or never-started tenant reports its engine series as zeros).
func (s *Server) writeProm(w io.Writer) {
	pst := s.cfg.Pool.Stats()
	tenants := make([]string, 0, len(pst.Tenants))
	for name := range pst.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	tenantSeries := func(name, typ, help string, get func(pool.TenantStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, tn := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, tn, get(pst.Tenants[tn]))
		}
	}
	engSeries := func(name, typ, help string, get func(wivi.EngineStats) float64) {
		tenantSeries(name, typ, help, func(t pool.TenantStats) float64 { return get(t.Engine) })
	}
	engSummary := func(name, help string, get func(wivi.EngineStats) wivi.LatencyProfile) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		for _, tn := range tenants {
			p := get(pst.Tenants[tn].Engine)
			for _, q := range []struct {
				q string
				d time.Duration
			}{{"0.5", p.P50}, {"0.95", p.P95}, {"0.99", p.P99}} {
				fmt.Fprintf(w, "%s{tenant=%q,quantile=%q} %g\n", name, tn, q.q, q.d.Seconds())
			}
			fmt.Fprintf(w, "%s_count{tenant=%q} %d\n", name, tn, p.Count)
		}
	}
	summary := func(name, help string, p wivi.LatencyProfile) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		for _, q := range []struct {
			q string
			d time.Duration
		}{{"0.5", p.P50}, {"0.95", p.P95}, {"0.99", p.P99}} {
			fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, q.q, q.d.Seconds())
		}
		fmt.Fprintf(w, "%s_count %d\n", name, p.Count)
	}

	engSeries("wivi_engine_workers", "gauge", "Engine worker pool size.",
		func(e wivi.EngineStats) float64 { return float64(e.Workers) })
	engSeries("wivi_engine_max_streams", "gauge", "Concurrent stream admission cap.",
		func(e wivi.EngineStats) float64 { return float64(e.MaxStreams) })
	engSeries("wivi_engine_queued", "gauge", "Accepted requests no worker has picked up yet.",
		func(e wivi.EngineStats) float64 { return float64(e.Queued) })
	engSeries("wivi_engine_in_flight", "gauge", "Requests executing right now.",
		func(e wivi.EngineStats) float64 { return float64(e.InFlight) })
	engSeries("wivi_engine_active_streams", "gauge", "Streaming subset of in-flight requests.",
		func(e wivi.EngineStats) float64 { return float64(e.ActiveStreams) })
	engSeries("wivi_engine_completed_total", "counter", "Requests finished without error.",
		func(e wivi.EngineStats) float64 { return float64(e.Completed) })
	engSeries("wivi_engine_failed_total", "counter", "Requests finished with an error.",
		func(e wivi.EngineStats) float64 { return float64(e.Failed) })
	engSeries("wivi_engine_frames_total", "counter", "Image frames produced by finished requests.",
		func(e wivi.EngineStats) float64 { return float64(e.Frames) })
	engSeries("wivi_engine_frames_per_second", "gauge", "Lifetime mean frame throughput.",
		func(e wivi.EngineStats) float64 { return e.FramesPerSecond })
	engSummary("wivi_engine_queue_wait_seconds", "Time requests sat accepted but unpicked.",
		func(e wivi.EngineStats) wivi.LatencyProfile { return e.QueueWait })
	engSummary("wivi_engine_frame_lag_seconds", "Streamed frame emit-vs-arrival lag.",
		func(e wivi.EngineStats) wivi.LatencyProfile { return e.FrameLag })
	engSummary("wivi_engine_end_to_end_seconds", "Accept-to-completion latency.",
		func(e wivi.EngineStats) wivi.LatencyProfile { return e.EndToEnd })

	gauge("wivi_pool_active_engines", "Tenants holding a live engine right now.", float64(pst.ActiveEngines))
	tenantSeries("wivi_pool_in_flight", "gauge", "Admitted requests not yet settled, per tenant.",
		func(t pool.TenantStats) float64 { return float64(t.InFlight) })
	tenantSeries("wivi_pool_active_streams", "gauge", "Streaming subset of in-flight, per tenant.",
		func(t pool.TenantStats) float64 { return float64(t.ActiveStreams) })
	tenantSeries("wivi_pool_submitted_total", "counter", "Requests admitted to the tenant's engine.",
		func(t pool.TenantStats) float64 { return float64(t.Submitted) })
	tenantSeries("wivi_pool_rejected_total", "counter", "Requests rejected at the tenant's budget (the 429 series).",
		func(t pool.TenantStats) float64 { return float64(t.Rejected) })
	tenantSeries("wivi_pool_evictions_total", "counter", "Idle engine evictions, per tenant.",
		func(t pool.TenantStats) float64 { return float64(t.Evictions) })

	sst := s.serveStats()
	gauge("wivi_serve_draining", "1 while the server drains for shutdown.", boolGauge(sst.Draining))
	gauge("wivi_serve_active_requests", "Track handlers executing right now.", float64(sst.ActiveRequests))
	gauge("wivi_serve_active_streams", "Streaming subset of active requests.", float64(sst.ActiveStreams))
	counter("wivi_serve_stream_frames_total", "Frames written to clients over the wire.", float64(sst.FramesStreamed))
	summary("wivi_serve_request_duration_seconds", "Track handler latency, receipt to final byte.", sst.RequestLatency)
	summary("wivi_serve_frame_lag_seconds", "Engine lag of frames when written to the wire.", sst.FrameLag)

	keys, counts := s.m.requestCounts()
	if len(keys) > 0 {
		fmt.Fprintf(w, "# HELP wivi_serve_requests_total Finished requests by endpoint and status code.\n")
		fmt.Fprintf(w, "# TYPE wivi_serve_requests_total counter\n")
		for i, k := range keys {
			fmt.Fprintf(w, "wivi_serve_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, counts[i])
		}
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
