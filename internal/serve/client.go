package serve

// A minimal stdlib client for the wivi-serve API, shared by the wire
// identity tests, wivi-bench's serve and tenants modes, and the
// examples. It decodes exactly what the server encodes (the wire.go
// types), so a frame that crosses the wire and back carries the same
// float64 bits the engine emitted.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client talks to one wivi-serve base URL.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant scopes every call to one tenant (the X-Wivi-Tenant header
	// on POSTs, the ?tenant= parameter on GETs); empty means the default
	// tenant — existing single-tenant callers are unchanged. A non-empty
	// TrackRequest.Tenant overrides it per request.
	Tenant string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
}

// tenantQuery renders the ?tenant= suffix for GET endpoints.
func (c *Client) tenantQuery() string {
	if c.Tenant == "" {
		return ""
	}
	return "?tenant=" + url.QueryEscape(c.Tenant)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// decodeError turns a non-2xx response into *APIError.
func decodeError(resp *http.Response) error {
	var body ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(data, &body); err != nil || body.Err.Code == "" {
		return &APIError{Status: resp.StatusCode, Code: CodeInternal,
			Message: strings.TrimSpace(string(data))}
	}
	return &APIError{Status: resp.StatusCode, Code: body.Err.Code, Message: body.Err.Message}
}

func (c *Client) postTrack(ctx context.Context, req TrackRequest) (*http.Response, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/track", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		hr.Header.Set(HeaderTenant, c.Tenant)
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// Track submits a batch request and returns the decoded result.
func (c *Client) Track(ctx context.Context, req TrackRequest) (*TrackResponse, error) {
	req.Stream = false
	resp, err := c.postTrack(ctx, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out TrackResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding track response: %w", err)
	}
	return &out, nil
}

// TrackStream submits a streaming request and returns the live event
// stream. Close the stream when done (it closes the response body).
func (c *Client) TrackStream(ctx context.Context, req TrackRequest) (*ClientStream, error) {
	req.Stream = true
	resp, err := c.postTrack(ctx, req)
	if err != nil {
		return nil, err
	}
	return newClientStream(resp.Body), nil
}

// maxStreamLine caps one NDJSON event line. A line holds a full angle
// spectrum, so the cap sits well past bufio's default 64 KiB token.
const maxStreamLine = 8 << 20

// newClientStream decodes the NDJSON events read from body.
func newClientStream(body io.ReadCloser) *ClientStream {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLine)
	return &ClientStream{body: body, sc: sc}
}

// ClientStream decodes the NDJSON event stream of one streamed request.
type ClientStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
	err  error
	done bool
	res  *TrackResponse
}

// Next returns the next frame, blocking until the server flushes one.
// ok is false once the stream has ended; then exactly one of Err and
// Result is non-nil. A stream ends cleanly only on a result event that
// carries its result; anything else (an error event, a malformed or
// bodiless event, a truncated body) ends it with an error.
func (s *ClientStream) Next() (Frame, bool) {
	for !s.done {
		if !s.sc.Scan() {
			s.done = true
			if err := s.sc.Err(); err != nil {
				s.err = err
			} else if s.res == nil && s.err == nil {
				s.err = io.ErrUnexpectedEOF
			}
			break
		}
		line := s.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			s.done, s.err = true, fmt.Errorf("serve: decoding stream event: %w", err)
			break
		}
		switch ev.Type {
		case EventFrame:
			if ev.Frame != nil {
				return *ev.Frame, true
			}
			s.done, s.err = true, errors.New("serve: frame event without a frame")
		case EventResult:
			s.done, s.res = true, ev.Result
			if s.res == nil {
				s.err = errors.New("serve: result event without a result")
			}
		case EventError:
			s.done = true
			if ev.Err != nil {
				s.err = &APIError{Status: http.StatusOK, Code: ev.Err.Code, Message: ev.Err.Message}
			} else {
				s.err = io.ErrUnexpectedEOF
			}
		default:
			s.done, s.err = true, fmt.Errorf("serve: unknown stream event type %q", ev.Type)
		}
	}
	return Frame{}, false
}

// Err reports the stream's terminal error, nil on clean completion.
func (s *ClientStream) Err() error { return s.err }

// Result returns the terminal result event, nil if the stream failed.
func (s *ClientStream) Result() *TrackResponse { return s.res }

// Close releases the underlying response body; safe after exhaustion.
func (s *ClientStream) Close() error { return s.body.Close() }

// Devices fetches the server's device registry.
func (c *Client) Devices(ctx context.Context) (*DevicesResponse, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/devices"+c.tenantQuery(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out DevicesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding devices response: %w", err)
	}
	return &out, nil
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stats"+c.tenantQuery(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding stats response: %w", err)
	}
	return &out, nil
}
