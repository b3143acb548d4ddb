package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wivi/internal/core"
	"wivi/internal/isar"
)

// Compile-time check: the integrated device is a Tracker.
var _ Tracker = (*core.Device)(nil)

// fakeTracker stamps its id into the image so ordering is observable,
// and records the last request mode it saw (mode is per-request data).
type fakeTracker struct {
	id       int
	delay    time.Duration
	err      error
	calls    atomic.Int32
	lastMode atomic.Int32
}

func (f *fakeTracker) Observe(ctx context.Context, req core.TrackRequest) (*core.Observation, error) {
	f.calls.Add(1)
	f.lastMode.Store(int32(req.Mode))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return &core.Observation{
		Mode:  req.Mode,
		Image: &isar.Image{Times: []float64{float64(f.id), req.StartT, req.Duration}},
	}, nil
}

func TestBatchPreservesRequestOrder(t *testing.T) {
	eng := New(Config{Workers: 8})
	defer eng.Close()
	handles := make([]*Handle, 50)
	for i := range handles {
		// Later requests finish first, so completion order inverts
		// submission order; each handle must still resolve to its own
		// tracker's result.
		h, err := eng.Submit(context.Background(), Request{
			Tracker:  &fakeTracker{id: i, delay: time.Duration(len(handles)-i) * 100 * time.Microsecond},
			Duration: 1,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		r := h.Wait(context.Background())
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		if got := int(r.Image.Times[0]); got != i {
			t.Fatalf("handle %d resolved to tracker %d", i, got)
		}
	}
}

func TestSubmitHandleWait(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	h, err := eng.Submit(context.Background(), Request{Tracker: &fakeTracker{id: 7}, StartT: 2, Duration: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait(context.Background())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Image.Times[0] != 7 || res.Image.Times[1] != 2 || res.Image.Times[2] != 3 {
		t.Fatalf("request fields not threaded through: %v", res.Image.Times)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done not closed after Wait")
	}
}

func TestErrorPropagation(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	boom := errors.New("boom")
	var results []Result
	for _, req := range []Request{
		{Tracker: &fakeTracker{id: 0}, Duration: 1},
		{Tracker: &fakeTracker{id: 1, err: boom}, Duration: 1},
		{Tracker: nil},
	} {
		h, err := eng.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, h.Wait(context.Background()))
	}
	if results[0].Err != nil {
		t.Fatalf("healthy request failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("error not propagated: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("nil tracker accepted")
	}
}

func TestCancellationMidFlight(t *testing.T) {
	eng := New(Config{Workers: 2, QueueDepth: 256})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100
	handles := make([]*Handle, 0, n)
	for i := 0; i < n; i++ {
		h, err := eng.Submit(ctx, Request{
			Tracker:  &fakeTracker{id: i, delay: 200 * time.Microsecond},
			Duration: 1,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	// Let a few complete, then cancel the rest mid-flight.
	res0 := handles[0].Wait(context.Background())
	if res0.Err != nil {
		t.Fatalf("first request failed before cancel: %v", res0.Err)
	}
	cancel()
	completed, canceled := 0, 0
	for i, h := range handles {
		res := h.Wait(context.Background())
		switch {
		case res.Err == nil:
			completed++
			if int(res.Image.Times[0]) != i {
				t.Fatalf("results[%d] carries tracker %v", i, res.Image.Times[0])
			}
		case errors.Is(res.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("request %d: unexpected error %v", i, res.Err)
		}
	}
	if completed == 0 {
		t.Fatal("no request completed before cancel")
	}
	if canceled == 0 {
		t.Fatal("no request observed the cancellation")
	}
}

func TestSubmitBlockedOnFullQueueHonorsContext(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 1})
	defer eng.Close()
	release := make(chan struct{})
	blocker := &slowTracker{release: release}
	if _, err := eng.Submit(context.Background(), Request{Tracker: blocker, Duration: 1}); err != nil {
		t.Fatal(err)
	}
	// Fill the queue (the worker is blocked on `release`).
	fillQueue(t, eng)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := eng.Submit(ctx, Request{Tracker: &fakeTracker{}, Duration: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit returned %v, want deadline exceeded", err)
	}
	close(release)
}

// fillQueue stuffs the engine's queue until Submit would block.
func fillQueue(t *testing.T, eng *Engine) {
	t.Helper()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := eng.Submit(ctx, Request{Tracker: &fakeTracker{}, Duration: 1})
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

type slowTracker struct {
	started chan struct{} // closed when the capture begins (may be nil)
	release chan struct{}
}

func (s *slowTracker) Observe(ctx context.Context, req core.TrackRequest) (*core.Observation, error) {
	if s.started != nil {
		close(s.started)
	}
	select {
	case <-s.release:
		return &core.Observation{Mode: req.Mode, Image: &isar.Image{}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestCloseFailsQueuedAndRejectsSubmit(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 16})
	started := make(chan struct{})
	release := make(chan struct{})
	first, err := eng.Submit(context.Background(), Request{
		Tracker:  &slowTracker{started: started, release: release},
		Duration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the capture is genuinely in flight before Close fires
	var queued []*Handle
	for i := 0; i < 8; i++ {
		h, err := eng.Submit(context.Background(), Request{Tracker: &fakeTracker{id: i}, Duration: 1})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}
	done := make(chan struct{})
	go func() {
		eng.Close()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	close(release) // let the in-flight capture finish so Close can join
	<-done
	res := first.Wait(context.Background())
	if res.Err != nil {
		t.Fatalf("in-flight request did not run to completion: %v", res.Err)
	}
	// With quit prioritized over queued work, the sole worker was busy
	// with the in-flight capture when Close fired, so every queued
	// request must fail fast with ErrClosed.
	for i, h := range queued {
		res := h.Wait(context.Background())
		if !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("queued request %d: got %v, want ErrClosed", i, res.Err)
		}
	}
	if _, err := eng.Submit(context.Background(), Request{Tracker: &fakeTracker{}, Duration: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	eng.Close() // idempotent
}

// TestCloseUnblocksFullQueueSubmit: a Submit parked on a full queue must
// return ErrClosed the moment Close fires, not wait for the in-flight
// capture to drain the queue.
func TestCloseUnblocksFullQueueSubmit(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := eng.Submit(context.Background(), Request{
		Tracker:  &slowTracker{started: started, release: release},
		Duration: 1,
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := eng.Submit(context.Background(), Request{Tracker: &fakeTracker{}, Duration: 1}); err != nil {
		t.Fatal(err) // fills the one-slot queue
	}
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Submit(context.Background(), Request{Tracker: &fakeTracker{}, Duration: 1})
		errc <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the Submit park on the full queue
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Submit returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit still blocked after Close")
	}
	close(release) // let the in-flight capture finish so Close can join
	<-closed
}

// TestConcurrentSubmitStress hammers Submit from many goroutines with a
// cancellation mid-flight; run with -race.
func TestConcurrentSubmitStress(t *testing.T) {
	eng := New(Config{Workers: 4, QueueDepth: 8})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var completed, canceled atomic.Int32
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				h, err := eng.Submit(ctx, Request{
					Tracker:  &fakeTracker{id: g*10 + i, delay: 50 * time.Microsecond},
					Duration: 1,
				})
				if err != nil {
					canceled.Add(1)
					continue
				}
				if res := h.Wait(context.Background()); res.Err == nil {
					completed.Add(1)
				} else {
					canceled.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	wg.Wait()
	if got := completed.Load() + canceled.Load(); got != 100 {
		t.Fatalf("%d requests accounted for, want 100", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	if eng.Workers() < 1 {
		t.Fatalf("default workers %d", eng.Workers())
	}
	if cap(eng.jobs) != 2*eng.Workers() {
		t.Fatalf("default queue depth %d, want %d", cap(eng.jobs), 2*eng.Workers())
	}
	want := eng.Workers() - 1
	if want < 1 {
		want = 1
	}
	if eng.MaxStreams() != want {
		t.Fatalf("default max streams %d, want %d", eng.MaxStreams(), want)
	}
}

// TestModeThreadedPerRequest pins the api contract of the redesign: the
// mode reaches the tracker as request data and echoes back in the
// result, with no device state in between.
func TestModeThreadedPerRequest(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	tr := &fakeTracker{id: 1}
	for _, mode := range []core.Mode{core.ModeTracking, core.ModeGesture} {
		h, err := eng.Submit(context.Background(), Request{Tracker: tr, Mode: mode, Duration: 1})
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait(context.Background())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Mode != mode {
			t.Fatalf("result mode %v, want %v", res.Mode, mode)
		}
		if got := core.Mode(tr.lastMode.Load()); got != mode {
			t.Fatalf("tracker saw mode %v, want %v", got, mode)
		}
	}
}

// TestStatsCounters drives a known request mix through the engine and
// checks the Stats snapshot settles to exact lifetime counts.
func TestStatsCounters(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	ctx := context.Background()
	const good, bad = 6, 2
	var handles []*Handle
	for i := 0; i < good; i++ {
		h, err := eng.Submit(ctx, Request{Tracker: &fakeTracker{id: i}, Duration: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i := 0; i < bad; i++ {
		h, err := eng.Submit(ctx, Request{Tracker: &fakeTracker{id: i, err: errors.New("boom")}, Duration: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	var frames int64
	for _, h := range handles {
		if res := h.Wait(ctx); res.Err == nil {
			frames += int64(res.Image.NumFrames())
			if res.QueueWait < 0 {
				t.Fatalf("negative queue wait %v", res.QueueWait)
			}
		}
	}
	s := eng.Stats()
	if s.Completed != good || s.Failed != bad {
		t.Fatalf("completed/failed = %d/%d, want %d/%d", s.Completed, s.Failed, good, bad)
	}
	if s.Frames != frames {
		t.Fatalf("frames = %d, want %d", s.Frames, frames)
	}
	if s.Queued != 0 || s.InFlight != 0 || s.ActiveStreams != 0 {
		t.Fatalf("idle engine reports queued=%d inflight=%d streams=%d", s.Queued, s.InFlight, s.ActiveStreams)
	}
	if s.Workers != 2 || s.FramesPerSecond <= 0 {
		t.Fatalf("stats sizing/rate: %+v", s)
	}
}

// TestMaxStreamsOverride: raising MaxStreams above the Workers-1 default
// admits more concurrent streams.
func TestMaxStreamsOverride(t *testing.T) {
	eng := New(Config{Workers: 3, MaxStreams: 2})
	defer eng.Close()
	ctx := context.Background()
	sh1, err := eng.SubmitStream(ctx, StreamRequest{Tracker: newPacedStreamDevice(t, 61, 20*time.Millisecond), Duration: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := sh1.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st1.Next(); !ok {
		t.Fatalf("first stream died: %v", st1.Err())
	}
	// Second stream admitted concurrently (default cap would allow it
	// too with 3 workers; the third proves the override is the binding
	// limit).
	sh2, err := eng.SubmitStream(ctx, StreamRequest{Tracker: newPacedStreamDevice(t, 62, 20*time.Millisecond), Duration: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sh2.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Next(); !ok {
		t.Fatalf("second stream died: %v", st2.Err())
	}
	if got := eng.Stats().ActiveStreams; got != 2 {
		t.Fatalf("active streams = %d, want 2", got)
	}
	admitCtx, cancelAdmit := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelAdmit()
	if _, err := eng.SubmitStream(admitCtx, StreamRequest{Tracker: newStreamDevice(t, 63), Duration: 0.5}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third stream admission: %v, want deadline exceeded", err)
	}
	if _, _, err := st1.Result(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.Result(); err != nil {
		t.Fatal(err)
	}
}
