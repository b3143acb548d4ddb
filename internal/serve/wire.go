package serve

// Wire types of the wivi-serve HTTP API. The layout is deliberately
// plain NDJSON-able JSON: every streamed line is one StreamEvent, every
// error body is one ErrorResponse, and all float64 values round-trip
// bit-exactly (encoding/json emits the shortest representation that
// re-parses to the identical float64, and the frame codec in codec.go
// writes frame events in the same bytes), which is what lets the wire
// identity tests demand byte-identical spectra after a full
// serialize/deserialize cycle.

import "fmt"

// Mode strings accepted in TrackRequest.Mode.
const (
	// ModeTrack runs the §5 ISAR tracking chain (the default).
	ModeTrack = "track"
	// ModeGesture additionally decodes gesture-encoded messages (§6.2).
	ModeGesture = "gesture"
)

// HeaderTenant is the request header naming the tenant when the body
// field is absent — the natural form for GETs and proxies that inject
// tenancy. A body Tenant field wins over the header.
const HeaderTenant = "X-Wivi-Tenant"

// TrackRequest is the body of POST /v1/track.
type TrackRequest struct {
	// Tenant routes the request to one tenant's engine pool; empty means
	// the default tenant (single-tenant clients never set it). The
	// X-Wivi-Tenant header is the fallback when this field is empty.
	Tenant string `json:"tenant,omitempty"`
	// Device names the target device; empty selects the tenant
	// registry's lexicographically first device (deterministic, and the
	// obvious choice for single-device deployments).
	Device string `json:"device,omitempty"`
	// Mode is "track" (default when empty) or "gesture".
	Mode string `json:"mode,omitempty"`
	// DurationS is the capture length in seconds; must be positive and
	// at most the server's configured maximum.
	DurationS float64 `json:"duration_s"`
	// DeadlineMs bounds acceptable end-to-end latency in milliseconds;
	// zero means none. An infeasible deadline is rejected up front with
	// HTTP 503 and code "deadline_infeasible" — the load-shedding seam.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Stream selects live NDJSON frame streaming instead of a single
	// JSON response: one StreamEvent per line, flushed per frame.
	Stream bool `json:"stream,omitempty"`
}

// TrackResponse is the body of a successful batch POST /v1/track, and
// the payload of the terminal "result" StreamEvent of a streamed one.
type TrackResponse struct {
	// Tenant names the tenant whose engine served the request.
	Tenant string `json:"tenant"`
	// Device and Mode echo the resolved request.
	Device string `json:"device"`
	Mode   string `json:"mode"`
	// NumFrames is the number of angle-spectrum frames in the image.
	NumFrames int `json:"num_frames"`
	// WindowMs is the wall-clock span of one analysis window in
	// milliseconds — the frame-lag SLO unit (streamed responses only).
	WindowMs float64 `json:"window_ms,omitempty"`
	// QueueWaitMs is how long the request waited for an engine worker.
	QueueWaitMs float64 `json:"queue_wait_ms"`
	// Message is the decoded gesture message (gesture mode only).
	Message *MessageResponse `json:"message,omitempty"`
}

// MessageResponse is the gesture decode carried by gesture-mode results.
type MessageResponse struct {
	// Bits is the decoded message as a "0101" string.
	Bits string `json:"bits"`
	// SNRsDB holds the per-bit gesture SNR.
	SNRsDB []float64 `json:"snrs_db"`
	// Erasures counts gestures dropped below the SNR gate.
	Erasures int `json:"erasures"`
	// Steps counts all detected step events.
	Steps int `json:"steps"`
}

// Frame is one streamed column of the angle-time image. Power values
// are the exact float64 spectrum samples — bit-identical, after JSON
// round-trip, to the in-process StreamFrame the engine emitted.
type Frame struct {
	// Index is the frame's position in the final image.
	Index int `json:"index"`
	// TimeS is the frame window's center time in seconds.
	TimeS float64 `json:"time_s"`
	// Power is the angular pseudospectrum over the device's angle grid.
	Power []float64 `json:"power"`
	// LagMs is the frame's wall-clock emission lag in milliseconds (the
	// real-time latency figure on paced devices).
	LagMs float64 `json:"lag_ms"`
}

// StreamEvent types.
const (
	// EventFrame events carry one image frame.
	EventFrame = "frame"
	// EventResult is the terminal event of a successful stream.
	EventResult = "result"
	// EventError is the terminal event of a failed stream.
	EventError = "error"
)

// StreamEvent is one NDJSON line of a streamed /v1/track response:
// zero or more "frame" events in index order, then exactly one "result"
// or "error" event.
type StreamEvent struct {
	Type   string         `json:"type"`
	Frame  *Frame         `json:"frame,omitempty"`
	Result *TrackResponse `json:"result,omitempty"`
	Err    *ErrorBody     `json:"error,omitempty"`
}

// Error codes carried in ErrorBody.Code. Codes are the stable,
// machine-matchable part of the error contract; messages are not.
const (
	// CodeBadRequest: malformed body or invalid parameters (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeRequestTooLarge: the request body exceeds the server's fixed
	// size cap (HTTP 413).
	CodeRequestTooLarge = "request_too_large"
	// CodeUnknownDevice: the named device is not registered (HTTP 404).
	CodeUnknownDevice = "unknown_device"
	// CodeDeadlineInfeasible: admission control proved the request's
	// deadline cannot be met; shed load or relax it (HTTP 503).
	CodeDeadlineInfeasible = "deadline_infeasible"
	// CodeDraining: the server is shutting down gracefully and rejects
	// new work while in-flight requests finish (HTTP 503).
	CodeDraining = "draining"
	// CodeEngineClosed: the engine behind the server has shut down
	// (HTTP 503).
	CodeEngineClosed = "engine_closed"
	// CodeTimeout: the request exceeded the server's request timeout
	// (HTTP 504).
	CodeTimeout = "timeout"
	// CodeCanceled: the request's capture was canceled, normally by the
	// client disconnecting mid-stream.
	CodeCanceled = "canceled"
	// CodeTenantSaturated: the request's tenant is at its own
	// queue/stream budget; no other tenant's capacity was touched. Back
	// off and retry — other tenants are unaffected (HTTP 429).
	CodeTenantSaturated = "tenant_saturated"
	// CodeUnknownTenant: the named tenant is not provisioned on this
	// server (HTTP 404).
	CodeUnknownTenant = "unknown_tenant"
	// CodeInternal: any other failure (HTTP 500).
	CodeInternal = "internal"
)

// ErrorBody is the typed error payload: Code is stable and
// machine-matchable, Message is human-readable detail.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps ErrorBody as the body of every non-2xx response.
type ErrorResponse struct {
	Err ErrorBody `json:"error"`
}

// DevicesResponse is the body of GET /v1/devices: what a client (or
// load generator) needs to know to form valid requests.
type DevicesResponse struct {
	// Tenant names the tenant whose registry this is.
	Tenant string `json:"tenant"`
	// Devices lists the registered device names, sorted.
	Devices []string `json:"devices"`
	// MaxDurationS is the server's per-request capture cap.
	MaxDurationS float64 `json:"max_duration_s,omitempty"`
}

// APIError is the client-side form of a non-2xx response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code and Message mirror the ErrorBody.
	Code, Message string
}

// Error renders the status, code and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("serve: HTTP %d (%s): %s", e.Status, e.Code, e.Message)
}
