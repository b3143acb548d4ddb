package serve

// Deterministic handler tests under core.FakeClock: the request-timeout
// path and the latency/lag histogram contributions are asserted exactly
// (not approximately) by driving the injected clock manually — the
// serve-tier counterpart of internal/pipeline's FakeClock tests. The
// pool is stubbed out through the Server.submit seam so only the
// handler's own clock reads are in play.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/pool"
)

// stubHandle scripts the engine seam for handler tests.
type stubHandle struct {
	started chan struct{} // closed when the handler reaches Wait/Stream
	wait    func(ctx context.Context) (*wivi.Result, error)
	stream  frameStream
}

func (s *stubHandle) Wait(ctx context.Context) (*wivi.Result, error) {
	if s.started != nil {
		close(s.started)
		s.started = nil
	}
	return s.wait(ctx)
}

func (s *stubHandle) Stream(ctx context.Context) (frameStream, error) {
	if s.started != nil {
		close(s.started)
		s.started = nil
	}
	return s.stream, nil
}

// stubStream feeds scripted frames through a channel; closing the
// channel ends the stream cleanly.
type stubStream struct {
	frames chan wivi.StreamFrame
	window time.Duration
}

func (s *stubStream) Next() (wivi.StreamFrame, bool) { fr, ok := <-s.frames; return fr, ok }
func (s *stubStream) Err() error                     { return nil }
func (s *stubStream) TotalFrames() int               { return 0 }
func (s *stubStream) WindowDuration() time.Duration  { return s.window }

// newClockServer builds a Server on a manual FakeClock with a scripted
// submit seam. The Router and its device exist only to resolve the
// request's tenant and device; no capture runs.
func newClockServer(t *testing.T, clk *core.FakeClock, timeout time.Duration,
	submit func(ctx context.Context, tenant string, req wivi.Request) (handle, error)) *Server {
	t.Helper()
	router := pool.NewRouter(oneTenant(pool.Budget{Workers: 1},
		map[string]*wivi.Device{"dev0": newWalkerDevice(t, 91, 0, false)}))
	t.Cleanup(func() { router.Close() })
	srv, err := New(Config{Pool: router, RequestTimeout: timeout, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srv.submit = submit
	return srv
}

// TestFakeClockRequestTimeout drives the request timeout exactly: a
// handler whose engine never answers must 504 the moment the clock
// passes RequestTimeout, and the request-latency histogram must record
// exactly that timeout — no wall-clock jitter in either figure.
func TestFakeClockRequestTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	clk := core.NewFakeClock(time.Unix(0, 0), false)
	started := make(chan struct{})
	srv := newClockServer(t, clk, timeout,
		func(ctx context.Context, tenant string, req wivi.Request) (handle, error) {
			return &stubHandle{
				started: started,
				wait: func(ctx context.Context) (*wivi.Result, error) {
					<-ctx.Done() // the engine never answers
					return nil, ctx.Err()
				},
			}, nil
		})

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/track", strings.NewReader(`{"device":"dev0","duration_s":1}`))
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()

	<-started            // the handler is blocked in Wait
	clk.AwaitSleepers(1) // its timeout sleeper has anchored its deadline
	clk.Advance(timeout) // the timeout fires, exactly on its deadline
	<-done               // handler returned; its deferred Observe ran

	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\n%s", rec.Code, rec.Body.String())
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil || eresp.Err.Code != CodeTimeout {
		t.Fatalf("error body %+v (%v), want code %s", eresp, err, CodeTimeout)
	}

	lat := srv.serveStats().RequestLatency
	if lat.Count != 1 {
		t.Fatalf("request latency count %d, want 1", lat.Count)
	}
	// The handler observed clock.Now()-start: exactly one Advance.
	for _, p := range []time.Duration{lat.P50, lat.P95, lat.P99} {
		if p != timeout {
			t.Fatalf("request latency percentiles %v, want exactly %v each", lat, timeout)
		}
	}
	if n := srv.serveStats().RequestsByCode["/v1/track 504"]; n != 1 {
		t.Fatalf("504 count %d, want 1", n)
	}
}

// TestFakeClockStreamLag drives a scripted stream and asserts the exact
// histogram contributions: the frame-lag recorder sees precisely the
// scripted lags (nearest-rank percentiles over {1,5,100} ms) and the
// request-latency recorder sees precisely the clock advance that
// elapsed across the handler.
func TestFakeClockStreamLag(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), false)
	frames := make(chan wivi.StreamFrame)
	st := &stubStream{frames: frames, window: 320 * time.Millisecond}
	started := make(chan struct{})
	srv := newClockServer(t, clk, 0,
		func(ctx context.Context, tenant string, req wivi.Request) (handle, error) {
			return &stubHandle{
				started: started,
				stream:  st,
				wait: func(ctx context.Context) (*wivi.Result, error) {
					return &wivi.Result{QueueWait: 7 * time.Millisecond}, nil
				},
			}, nil
		})

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/track", strings.NewReader(`{"device":"dev0","duration_s":1,"stream":true}`))
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()

	<-started
	lags := []time.Duration{time.Millisecond, 5 * time.Millisecond, 100 * time.Millisecond}
	for i, lag := range lags {
		clk.Advance(10 * time.Millisecond) // paced delivery: 30 ms total across the request
		frames <- wivi.StreamFrame{Index: i, Time: float64(i), Power: []float64{1, 2}, Lag: lag}
	}
	close(frames)
	<-done

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d\n%s", rec.Code, rec.Body.String())
	}

	// Decode the NDJSON transcript: 3 frames with the scripted lags in
	// milliseconds, then the terminal result.
	var events []StreamEvent
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	for i, lag := range lags {
		ev := events[i]
		if ev.Type != EventFrame || ev.Frame == nil {
			t.Fatalf("event %d: %+v, want frame", i, ev)
		}
		if wantMs := float64(lag) / float64(time.Millisecond); ev.Frame.LagMs != wantMs {
			t.Fatalf("frame %d lag %v ms, want %v", i, ev.Frame.LagMs, wantMs)
		}
	}
	last := events[3]
	if last.Type != EventResult || last.Result == nil {
		t.Fatalf("terminal event %+v, want result", last)
	}
	if last.Result.NumFrames != 3 || last.Result.QueueWaitMs != 7 || last.Result.WindowMs != 320 ||
		last.Result.Tenant != pool.DefaultTenant {
		t.Fatalf("result %+v, want 3 frames, queue_wait_ms 7, window_ms 320, tenant %q",
			last.Result, pool.DefaultTenant)
	}

	// Exact histogram contributions: nearest-rank over {1,5,100} ms.
	sst := srv.serveStats()
	if sst.FrameLag.Count != 3 {
		t.Fatalf("frame lag count %d, want 3", sst.FrameLag.Count)
	}
	if sst.FrameLag.P50 != 5*time.Millisecond ||
		sst.FrameLag.P95 != 100*time.Millisecond ||
		sst.FrameLag.P99 != 100*time.Millisecond {
		t.Fatalf("frame lag percentiles %+v, want exactly 5ms/100ms/100ms", sst.FrameLag)
	}
	if sst.FramesStreamed != 3 {
		t.Fatalf("frames streamed %d, want 3", sst.FramesStreamed)
	}
	// The request spanned exactly the 3 scripted advances.
	if sst.RequestLatency.Count != 1 || sst.RequestLatency.P50 != 30*time.Millisecond {
		t.Fatalf("request latency %+v, want one sample of exactly 30ms", sst.RequestLatency)
	}
}
