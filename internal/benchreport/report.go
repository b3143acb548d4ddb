// Package benchreport is the report every wivi-bench run writes to
// stdout, and the gate each report must pass. It is one JSON object, so
// `wivi-bench -mode stream > out.json` always yields parseable JSON and
// CI accumulates a perf trajectory across PRs (BENCH_*.json).
//
// Schema (stable; additions are backward-compatible, removals and
// renames are breaking and require a schema bump):
//
//	schema           "wivi-bench/2" (version 2 dropped the warm-start
//	                 eigensolver's eig_keyframe_every and
//	                 eig_sweeps_per_frame)
//	mode             "batch" | "stream" | "mixed" | "paced" | "serve" | "eval"
//	                 (the tenants mode reports "serve")
//	workers          worker-pool size the run used
//	gomaxprocs       runtime.GOMAXPROCS(0) on the host
//	scenes           scenes (or requests per kind, mixed mode)
//	track_duration_s per-scene capture duration
//	elapsed_s        full mode wall time
//	scenes_per_s     primary throughput figure
//	identity         batch/stream/parallel byte-identity checks passed
//	ttff_ms          mean time-to-first-frame        (stream, paced)
//	frame_lag_p50_ms / _p95_ms / _p99_ms             (stream, paced)
//	window_ms        one analysis window             (stream, paced, tenants)
//	frames_per_s     streamed frame throughput       (stream)
//	frames_per_s_per_core   frames_per_s / gomaxprocs (stream)
//	allocs_per_frame heap allocations per streamed frame, whole-chain
//	                 (capture + combine + kernel + assembly) (stream)
//	stage_cov_us / stage_eig_us / stage_spectrum_us  per-frame wall
//	                 microseconds in the covariance, eigendecomposition
//	                 and spectrum stages of the frame kernel (stream)
//	real_time_factor capture span / compute time     (paced)
//	speedup_x        parallel over sequential        (batch)
//	per_mode         {track|gesture|stream|batch: figures} (mixed, serve)
//	engine           engine Stats() snapshot         (mixed, paced, serve)
//	experiments, failures                            (eval)
//	requests_per_s   completed requests per second over the wire (serve)
//	requests_at_slo_per_s   completed requests per second that met
//	                 the latency SLO (one capture duration)       (serve)
//	slo_ok_fraction  fraction of requests that met the SLO        (serve)
//	request_p50_ms / _p95_ms / _p99_ms   wire request latency     (serve)
//	tenants          per-tenant figures, keyed by tenant name
//	                 (tenants): requests, requests_per_s,
//	                 requests_at_slo_per_s, slo_ok_fraction,
//	                 request_p95_ms, frame_lag_p95_ms, rejected
//	                 (typed tenant_saturated 429s), saturated
//	                 (true on the injected noisy tenant). A batch
//	                 request is at SLO when it finishes within one
//	                 capture duration; a streamed one when its p95
//	                 frame lag stays under one analysis window.
//	tenant_isolation noisy-neighbor proof (tenants): the saturated
//	                 tenant drew typed 429s while every victim
//	                 tenant's streams held p95 frame lag under one
//	                 window and met the SLO
package benchreport

// Schema versions the JSON layout.
const Schema = "wivi-bench/2"

// Report is one run's figures.
type Report struct {
	Schema         string  `json:"schema"`
	Mode           string  `json:"mode"`
	Workers        int     `json:"workers"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Scenes         int     `json:"scenes"`
	TrackDurationS float64 `json:"track_duration_s,omitempty"`
	ElapsedS       float64 `json:"elapsed_s"`
	ScenesPerSec   float64 `json:"scenes_per_s,omitempty"`
	Identity       bool    `json:"identity"`

	TTFFMs        float64 `json:"ttff_ms,omitempty"`
	FrameLagP50Ms float64 `json:"frame_lag_p50_ms,omitempty"`
	FrameLagP95Ms float64 `json:"frame_lag_p95_ms,omitempty"`
	FrameLagP99Ms float64 `json:"frame_lag_p99_ms,omitempty"`
	WindowMs      float64 `json:"window_ms,omitempty"`

	FramesPerSec        float64 `json:"frames_per_s,omitempty"`
	FramesPerSecPerCore float64 `json:"frames_per_s_per_core,omitempty"`
	AllocsPerFrame      float64 `json:"allocs_per_frame,omitempty"`

	StageCovUs      float64 `json:"stage_cov_us,omitempty"`
	StageEigUs      float64 `json:"stage_eig_us,omitempty"`
	StageSpectrumUs float64 `json:"stage_spectrum_us,omitempty"`

	RealTimeFactor float64 `json:"real_time_factor,omitempty"`
	SpeedupX       float64 `json:"speedup_x,omitempty"`

	RequestsPerSec      float64 `json:"requests_per_s,omitempty"`
	RequestsAtSLOPerSec float64 `json:"requests_at_slo_per_s,omitempty"`
	SLOOkFraction       float64 `json:"slo_ok_fraction,omitempty"`
	RequestP50Ms        float64 `json:"request_p50_ms,omitempty"`
	RequestP95Ms        float64 `json:"request_p95_ms,omitempty"`
	RequestP99Ms        float64 `json:"request_p99_ms,omitempty"`

	Tenants         map[string]TenantFigures `json:"tenants,omitempty"`
	TenantIsolation bool                     `json:"tenant_isolation,omitempty"`

	PerMode map[string]ModeFigures `json:"per_mode,omitempty"`
	Engine  *EngineFigures         `json:"engine,omitempty"`

	Experiments int `json:"experiments,omitempty"`
	Failures    int `json:"failures"`
}

// TenantFigures are one tenant's aggregates in tenants mode.
// Rejected is the router's lifetime typed-429 count for the tenant;
// Saturated marks the tenant the noisy-neighbor phase deliberately
// drove to its budget.
type TenantFigures struct {
	Requests            int     `json:"requests"`
	RequestsPerSec      float64 `json:"requests_per_s"`
	RequestsAtSLOPerSec float64 `json:"requests_at_slo_per_s"`
	SLOOkFraction       float64 `json:"slo_ok_fraction"`
	RequestP95Ms        float64 `json:"request_p95_ms"`
	FrameLagP95Ms       float64 `json:"frame_lag_p95_ms,omitempty"`
	Rejected            int64   `json:"rejected"`
	Saturated           bool    `json:"saturated,omitempty"`
}

// ModeFigures are the per-kind aggregates of the mixed and serve modes.
type ModeFigures struct {
	Requests        int     `json:"requests"`
	RequestsPerSec  float64 `json:"requests_per_s"`
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms"`
	LatencyMeanMs   float64 `json:"latency_mean_ms"`
}

// EngineFigures snapshot wivi.EngineStats for the report.
type EngineFigures struct {
	Completed      int64   `json:"completed"`
	Failed         int64   `json:"failed"`
	Frames         int64   `json:"frames"`
	FramesPerSec   float64 `json:"frames_per_s"`
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95Ms float64 `json:"queue_wait_p95_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	FrameLagP50Ms  float64 `json:"frame_lag_p50_ms"`
	FrameLagP95Ms  float64 `json:"frame_lag_p95_ms"`
	FrameLagP99Ms  float64 `json:"frame_lag_p99_ms"`
	EndToEndP50Ms  float64 `json:"end_to_end_p50_ms"`
	EndToEndP95Ms  float64 `json:"end_to_end_p95_ms"`
	EndToEndP99Ms  float64 `json:"end_to_end_p99_ms"`
}
