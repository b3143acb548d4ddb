package main

// The tier trace: the served stack is wrapped from outside — an
// http.Handler around serve.Server, a ResponseWriter that times Write
// and Flush, a client RoundTripper, the pool's device factory, and a
// poller of the engine's own stats — so the per-layer figures come from
// the real traffic of the workload without touching the program.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/serve"
)

// requestIDHeader carries the load generator's request id to the
// handler wrapper, which is how client and server timings are matched.
const requestIDHeader = "X-Bench-Request"

type requestIDKey struct{}

const (
	// keptFrames and keptBodies bound what the trace retains for the
	// encode and client-decode replays.
	keptFrames = 64
	keptBodies = 4
	// replayFrames is the least number of frames each replay times.
	replayFrames = 256
	// pollEvery is the engine-stats polling period behind busy_frac.
	pollEvery = 5 * time.Millisecond
)

// tierTrace accumulates the tier-level spans of one traced run.
type tierTrace struct {
	clk core.Clock
	ids atomic.Int64

	mu          sync.Mutex
	handlerTime map[string]time.Duration // request id → handler time
	frameWrite  time.Duration            // Write time of frame events
	frameFlush  time.Duration            // Flush time after frame events
	frames      int
	frameBytes  int
	builds      []time.Duration // one per device built
	bodies      [][]byte        // complete NDJSON stream bodies
	kept        []serve.Frame   // decoded frames
	busy        []float64       // polled in-flight share of the workers
}

func newTierTrace(clk core.Clock) *tierTrace {
	return &tierTrace{clk: clk, handlerTime: make(map[string]time.Duration)}
}

func (t *tierTrace) newID() string { return fmt.Sprintf("r%d", t.ids.Add(1)) }

func (t *tierTrace) noteBuild(d time.Duration) {
	t.mu.Lock()
	t.builds = append(t.builds, d)
	t.mu.Unlock()
}

func (t *tierTrace) keepFrame(f serve.Frame) {
	t.mu.Lock()
	if len(t.kept) < keptFrames {
		t.kept = append(t.kept, f)
	}
	t.mu.Unlock()
}

// wrap wraps the server's handler: it times the whole handler and
// each response Write and Flush, attributing them to the request id.
func (t *tierTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &timedWriter{ResponseWriter: w, clk: t.clk}
		t0 := t.clk.Now()
		h.ServeHTTP(tw, r)
		d := t.clk.Now().Sub(t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		if id := r.Header.Get(requestIDHeader); id != "" {
			t.handlerTime[id] = d
		}
		t.frameWrite += tw.write
		t.frameFlush += tw.flush
		t.frames += tw.frames
		t.frameBytes += tw.bytes
	})
}

// frameEvent is how every NDJSON frame event starts on the wire.
var frameEvent = []byte(`{"type":"` + serve.EventFrame + `"`)

// timedWriter times the server's writes of frame events and the flushes
// that follow them. It implements http.Flusher, which the server's
// stream path requires.
type timedWriter struct {
	http.ResponseWriter
	clk          core.Clock
	write, flush time.Duration
	frames       int
	bytes        int
	afterFrame   bool
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := w.clk.Now()
	n, err := w.ResponseWriter.Write(p)
	w.afterFrame = bytes.HasPrefix(p, frameEvent)
	if w.afterFrame {
		w.write += w.clk.Now().Sub(t0)
		w.frames++
		w.bytes += n
	}
	return n, err
}

func (w *timedWriter) Flush() {
	t0 := w.clk.Now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	if w.afterFrame {
		w.flush += w.clk.Now().Sub(t0)
	}
}

// tracedTransport stamps the request id on outgoing requests and
// records a few complete stream bodies for the client-decode replay.
type tracedTransport struct {
	base http.RoundTripper
	t    *tierTrace
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestIDHeader, id)
	}
	resp, err := tt.base.RoundTrip(r)
	if err == nil && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		resp.Body = &recordingBody{ReadCloser: resp.Body, t: tt.t}
	}
	return resp, err
}

// recordingBody copies a stream body as the client reads it and hands
// the copy to the trace on Close.
type recordingBody struct {
	io.ReadCloser
	t   *tierTrace
	buf bytes.Buffer
}

func (b *recordingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *recordingBody) Close() error {
	resultEvent := []byte(`{"type":"` + serve.EventResult + `"`)
	b.t.mu.Lock()
	if len(b.t.bodies) < keptBodies && bytes.Contains(b.buf.Bytes(), resultEvent) {
		b.t.bodies = append(b.t.bodies, b.buf.Bytes())
	}
	b.t.mu.Unlock()
	return b.ReadCloser.Close()
}

// poll samples the engine's in-flight share of its workers every
// pollEvery until the returned stop function is called; stop returns
// once the poller has exited.
func (t *tierTrace) poll(stats func() wivi.EngineStats, workers int) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for t.clk.Sleep(ctx, pollEvery) == nil {
			share := float64(stats().InFlight) / float64(workers)
			t.mu.Lock()
			t.busy = append(t.busy, share)
			t.mu.Unlock()
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// encodeUsPerFrame times json.Marshal of received frames re-wrapped as
// the server's stream events: the server's per-frame encode cost.
func (t *tierTrace) encodeUsPerFrame() (float64, error) {
	if len(t.kept) == 0 {
		return 0, fmt.Errorf("no streamed frames to re-encode")
	}
	var total time.Duration
	n := 0
	for n < replayFrames {
		for i := range t.kept {
			t0 := t.clk.Now()
			if _, err := json.Marshal(serve.StreamEvent{Type: serve.EventFrame, Frame: &t.kept[i]}); err != nil {
				return 0, err
			}
			total += t.clk.Now().Sub(t0)
			n++
		}
	}
	return us(total) / float64(n), nil
}

// clientDecodeUsPerFrame replays recorded stream bodies from memory
// through serve.Client and times ClientStream.Next per frame: the
// client's decode cost without the wait for the network.
func (t *tierTrace) clientDecodeUsPerFrame(ctx context.Context) (float64, error) {
	if len(t.bodies) == 0 {
		return 0, fmt.Errorf("no stream bodies recorded")
	}
	var total time.Duration
	n := 0
	for n < replayFrames {
		for _, body := range t.bodies {
			c := &serve.Client{BaseURL: "http://replay", HTTPClient: &http.Client{Transport: replayTransport(body)}}
			cs, err := c.TrackStream(ctx, serve.TrackRequest{DurationS: 1})
			if err != nil {
				return 0, err
			}
			t0 := t.clk.Now()
			for {
				if _, ok := cs.Next(); !ok {
					break
				}
				n++
			}
			total += t.clk.Now().Sub(t0)
			err = cs.Err()
			_ = cs.Close()
			if err != nil {
				return 0, fmt.Errorf("replaying a recorded stream: %w", err)
			}
		}
	}
	return us(total) / float64(n), nil
}

// replayTransport answers every request with one recorded NDJSON body.
type replayTransport []byte

func (b replayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    r,
	}, nil
}
