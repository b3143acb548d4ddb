package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wivi"
	"wivi/internal/pool"
)

// FuzzTrackRequest drives arbitrary /v1/track bodies and tenant headers
// through handleTrack's decoding and validation. The pool is stubbed
// out through the submit seam, so no capture runs: an admitted request
// resolves at once to an empty result. Whatever the input, the handler
// must answer 200 or a typed 4xx error, and it may only submit a
// request that satisfies every bound the validation promises.
//
//	go test -run '^$' -fuzz FuzzTrackRequest -fuzztime 10s ./internal/serve
func FuzzTrackRequest(f *testing.F) {
	for _, tc := range validationCases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "")
	}
	f.Add([]byte("not json"), "")
	f.Add([]byte(`{"device":"dev0","duration_s":1}`), "")
	f.Add([]byte(`{"duration_s":2,"mode":"gesture","stream":true}`), pool.DefaultTenant)
	f.Add([]byte(`{"device":"dev0","duration_s":1,"deadline_ms":1e300}`), "")
	f.Add([]byte(`{"device":"dev0","duration_s":1}`), "ghost")

	router := pool.NewRouter(oneTenant(pool.Budget{Workers: 1},
		map[string]*wivi.Device{"dev0": newWalkerDevice(f, 93, 0, 0, false)}))
	f.Cleanup(func() { router.Close() })
	srv, err := New(Config{Pool: router, MaxDurationS: validationMaxDurationS})
	if err != nil {
		f.Fatal(err)
	}
	// The fuzz function runs its inputs one at a time, so one variable
	// carries the submitted request from the seam to the assertions.
	var submitted *wivi.Request
	ended := make(chan wivi.StreamFrame)
	close(ended)
	srv.submit = func(ctx context.Context, tenant string, req wivi.Request) (handle, error) {
		submitted = &req
		return &stubHandle{
			stream: &stubStream{frames: ended, window: 320 * time.Millisecond},
			wait: func(context.Context) (*wivi.Result, error) {
				return &wivi.Result{Mode: req.Mode}, nil
			},
		}, nil
	}

	f.Fuzz(func(t *testing.T, body []byte, tenant string) {
		submitted = nil
		req := httptest.NewRequest(http.MethodPost, "/v1/track", bytes.NewReader(body))
		if tenant != "" {
			req.Header.Set(HeaderTenant, tenant)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		if rec.Code != http.StatusOK {
			if submitted != nil {
				t.Fatalf("status %d after submitting %+v", rec.Code, *submitted)
			}
			var eresp ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil {
				t.Fatalf("status %d with an untyped body %q: %v", rec.Code, rec.Body.String(), err)
			}
			codes := map[int][]string{
				http.StatusBadRequest:            {CodeBadRequest},
				http.StatusNotFound:              {CodeUnknownDevice, CodeUnknownTenant},
				http.StatusRequestEntityTooLarge: {CodeRequestTooLarge},
			}
			want, ok := codes[rec.Code]
			if !ok {
				t.Fatalf("status %d (%s), want 200 or a typed 4xx", rec.Code, eresp.Err.Code)
			}
			for _, code := range want {
				if eresp.Err.Code == code {
					if rec.Code == http.StatusRequestEntityTooLarge && len(body) <= maxTrackBodyBytes {
						t.Fatalf("413 for a %d-byte body (cap %d)", len(body), maxTrackBodyBytes)
					}
					return
				}
			}
			t.Fatalf("status %d carries code %q, want one of %v", rec.Code, eresp.Err.Code, want)
		}

		// Admitted: the decoded request must satisfy every bound.
		if submitted == nil {
			t.Fatal("200 without a submit")
		}
		var tr TrackRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&tr); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		s := *submitted
		if s.Device == nil || s.Duration != tr.DurationS || s.Duration <= 0 || s.Duration > validationMaxDurationS {
			t.Fatalf("submitted %+v for %+v", s, tr)
		}
		if s.Deadline < 0 || s.Deadline != time.Duration(tr.DeadlineMs*float64(time.Millisecond)) {
			t.Fatalf("submitted deadline %v for deadline_ms %g", s.Deadline, tr.DeadlineMs)
		}
		if s.Stream != tr.Stream || (s.Mode == wivi.Gesture) != (tr.Mode == ModeGesture) {
			t.Fatalf("submitted %+v for %+v", s, tr)
		}
		var resp TrackResponse
		if tr.Stream {
			var last StreamEvent
			dec := json.NewDecoder(rec.Body)
			for dec.More() {
				last = StreamEvent{}
				if err := dec.Decode(&last); err != nil {
					t.Fatalf("stream transcript: %v", err)
				}
			}
			if last.Type != EventResult || last.Result == nil {
				t.Fatalf("stream ended on %+v, want a result event", last)
			}
			resp = *last.Result
		} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("batch response: %v", err)
		}
		if resp.Tenant != pool.DefaultTenant || resp.Device != "dev0" {
			t.Fatalf("response %+v, want tenant %q on dev0", resp, pool.DefaultTenant)
		}
	})
}

// FuzzClientStream drives arbitrary response bodies through the NDJSON
// stream decoder. However the body ends — a result, an error event, a
// malformed or bodiless event, a truncated line or no terminal event at
// all — once Next returns false exactly one of Err and Result is set,
// so a caller that checks Err can never mistake a broken stream for a
// complete one.
//
//	go test -run '^$' -fuzz '^FuzzClientStream$' -fuzztime 10s ./internal/serve
func FuzzClientStream(f *testing.F) {
	frame := `{"type":"frame","frame":{"index":0,"time_s":0.16,"power":[1,2],"lag_ms":3}}` + "\n"
	result := `{"type":"result","result":{"tenant":"default","device":"dev0","mode":"track","num_frames":1}}` + "\n"
	for _, body := range []string{
		frame + result,
		frame + `{"type":"fra`,             // truncated line
		frame,                              // no terminal event
		"",                                 // empty body
		`{"type":"result"}` + "\n",         // result without its body
		`{"type":"frame"}` + "\n" + result, // frame without its body
		`{"type":"error"}` + "\n",          // error without its body
		`{"type":"error","error":{"code":"internal","message":"boom"}}` + "\n",
		`{"type":"heartbeat"}` + "\n" + result, // unknown event type
		"\n  \n" + result + frame,              // blank lines, then events past the result
		"null\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cs := newClientStream(io.NopCloser(bytes.NewReader(body)))
		for {
			if _, ok := cs.Next(); !ok {
				break
			}
		}
		if (cs.Err() == nil) == (cs.Result() == nil) {
			t.Fatalf("stream ended with Err %v and Result %+v, want exactly one set", cs.Err(), cs.Result())
		}
		if _, ok := cs.Next(); ok {
			t.Fatal("Next yielded a frame after the stream ended")
		}
	})
}

// TestClientStreamLineCap pins the decoder's line bound: an event line
// past maxStreamLine ends the stream with bufio.ErrTooLong instead of
// growing the buffer without limit.
func TestClientStreamLineCap(t *testing.T) {
	line := append(bytes.Repeat([]byte{' '}, maxStreamLine+1), '\n')
	cs := newClientStream(io.NopCloser(bytes.NewReader(line)))
	if _, ok := cs.Next(); ok {
		t.Fatal("an oversized line yielded a frame")
	}
	if !errors.Is(cs.Err(), bufio.ErrTooLong) {
		t.Fatalf("Err = %v, want bufio.ErrTooLong", cs.Err())
	}
}
