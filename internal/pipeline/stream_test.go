package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"wivi/internal/core"
	"wivi/internal/sim"
)

func newStreamDevice(t *testing.T, seed int64) *core.Device {
	t.Helper()
	return newPacedStreamDevice(t, seed, 0)
}

// newPacedStreamDevice builds a walker device whose front end sleeps
// chunkDelay per streamed chunk — a stand-in for a real radio recording
// in real time, so scheduling tests get genuinely long-lived streams.
func newPacedStreamDevice(t *testing.T, seed int64, chunkDelay time.Duration) *core.Device {
	t.Helper()
	sc := sim.NewScene(sim.SceneConfig{Seed: seed})
	if _, err := sc.AddWalker(2); err != nil {
		t.Fatal(err)
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var front core.FrontEnd = fe
	if chunkDelay > 0 {
		front = pacedFrontEnd{Device: fe, delay: chunkDelay}
	}
	dev, err := core.New(front, core.DefaultConfig(fe))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// pacedFrontEnd delays each streamed chunk, emulating real-time sample
// arrival.
type pacedFrontEnd struct {
	*sim.Device
	delay time.Duration
}

func (p pacedFrontEnd) StreamCapture(pc []complex128, boostDB float64, startT float64, total, chunk int, emit func([][]complex128) error) error {
	return p.Device.StreamCapture(pc, boostDB, startT, total, chunk, func(sub [][]complex128) error {
		time.Sleep(p.delay)
		return emit(sub)
	})
}

// TestSubmitStreamMatchesBatchSubmit runs the same scene through a batch
// Submit and a stream Submit on one engine: identical images, the stream
// emits every frame, and its handle's Wait carries the same image.
func TestSubmitStreamMatchesBatchSubmit(t *testing.T) {
	const duration = 0.6
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	h, err := e.Submit(ctx, Request{Tracker: newStreamDevice(t, 31), Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	batch := h.Wait(ctx)
	if batch.Err != nil {
		t.Fatal(batch.Err)
	}

	sh, err := e.Submit(ctx, Request{Tracker: newStreamDevice(t, 31), Duration: duration, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sh.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		frames++
	}
	img, _, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if frames != st.TotalFrames() {
		t.Fatalf("emitted %d frames, want %d", frames, st.TotalFrames())
	}
	if !reflect.DeepEqual(img, batch.Image) {
		t.Fatal("streamed image differs from batch submit")
	}
	res := sh.Wait(ctx)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !reflect.DeepEqual(res.Image, batch.Image) {
		t.Fatal("stream handle's result differs from batch submit")
	}
	if _, err := h.Stream(ctx); err == nil {
		t.Fatal("batch handle returned a frame stream")
	}
}

// TestSubmitStreamLeavesWorkerForBatch pins the no-starvation guarantee:
// with 2 workers, one long-running stream may occupy one slot, and a
// batch submit must still complete while the stream is mid-flight. A
// second concurrent stream must be refused admission until the first
// finishes (at most Workers-1 streams).
func TestSubmitStreamLeavesWorkerForBatch(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	sh, err := e.Submit(ctx, Request{Tracker: newPacedStreamDevice(t, 32, 20*time.Millisecond), Duration: 1.5, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sh.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// First frame proves the stream is live and holding its worker.
	if _, ok := st.Next(); !ok {
		t.Fatalf("stream died: %v", st.Err())
	}

	// A second stream must NOT be admitted while the first runs: the
	// engine caps streams at Workers-1 = 1.
	admitCtx, cancelAdmit := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelAdmit()
	if _, err := e.Submit(admitCtx, Request{Tracker: newStreamDevice(t, 33), Duration: 0.5, Stream: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second stream admission: %v, want deadline exceeded", err)
	}

	// Batch work still flows on the remaining worker.
	h, err := e.Submit(ctx, Request{Tracker: newStreamDevice(t, 34), Duration: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(ctx); res.Err != nil {
		t.Fatalf("batch submit starved: %v", res.Err)
	}
	select {
	case <-st.Done():
		t.Fatal("stream finished before the batch completed — not concurrent")
	default:
	}
	if res := sh.Wait(ctx); res.Err != nil {
		t.Fatal(res.Err)
	}
	// With the first stream done, a new stream is admitted at once.
	admitCtx2, cancelAdmit2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancelAdmit2()
	sh2, err := e.Submit(admitCtx2, Request{Tracker: newStreamDevice(t, 33), Duration: 0.5, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := sh2.Wait(ctx); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestSubmitStreamValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	if _, err := e.Submit(context.Background(), Request{Stream: true}); err == nil {
		t.Fatal("nil tracker accepted")
	}
	e.Close()
	if _, err := e.Submit(context.Background(), Request{Tracker: newStreamDevice(t, 35), Duration: 1, Stream: true}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestSubmitStreamCanceledMidFlight cancels a streaming capture and
// verifies the worker slot and admission slot free up.
func TestSubmitStreamCanceledMidFlight(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	sh, err := e.Submit(ctx, Request{Tracker: newPacedStreamDevice(t, 36, 10*time.Millisecond), Duration: 5, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sh.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("stream died before cancel: %v", st.Err())
	}
	cancel()
	<-st.Done()
	if _, _, err := st.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
	if res := sh.Wait(context.Background()); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", res.Err)
	}
	// The admission slot is free again.
	sh2, err := e.Submit(context.Background(), Request{Tracker: newStreamDevice(t, 37), Duration: 0.4, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := sh2.Wait(context.Background()); res.Err != nil {
		t.Fatal(res.Err)
	}
}
