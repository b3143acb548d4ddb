package pipeline

// Deadline admission and latency-histogram tests. Admission is checked
// before any queueing, so these tests are deterministic: a fresh engine
// has no service history and the only active bound is the pacing floor.

import (
	"context"
	"errors"
	"testing"
	"time"

	"wivi/internal/core"
)

// neverTracker is a Tracker for requests that must be rejected at
// admission and therefore never run.
type neverTracker struct{}

func (neverTracker) Observe(ctx context.Context, req core.TrackRequest) (*core.Observation, error) {
	panic("Observe called on a request that must be rejected at admission")
}

func (neverTracker) ObserveStream(ctx context.Context, req core.TrackRequest) (*core.Stream, error) {
	panic("ObserveStream called on a request that must be rejected at admission")
}

func TestDeadlineInfeasiblePacedBatch(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	// A paced 2 s capture cannot finish inside 500 ms of wall clock.
	_, err := eng.Submit(context.Background(), Request{
		Tracker:  &fakeTracker{id: 1},
		Duration: 2,
		Paced:    true,
		Deadline: 500 * time.Millisecond,
	})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("Submit err = %v, want ErrDeadlineInfeasible", err)
	}
	// The rejection happens at admission: nothing was queued or counted.
	if st := eng.Stats(); st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("rejected request left engine state: %+v", st)
	}
	// A feasible deadline on the same request is accepted and completes.
	h, err := eng.Submit(context.Background(), Request{
		Tracker:  &fakeTracker{id: 1},
		Duration: 2,
		Paced:    true,
		Deadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("feasible submit: %v", err)
	}
	if res := h.Wait(context.Background()); res.Err != nil {
		t.Fatalf("wait: %v", res.Err)
	}
	// An unpaced request has no pacing floor: a tight deadline passes
	// admission on an idle engine (no service history -> no queue bound).
	if _, err := eng.Submit(context.Background(), Request{
		Tracker:  &fakeTracker{id: 2},
		Duration: 2,
		Deadline: time.Millisecond,
	}); err != nil {
		t.Fatalf("unpaced tight-deadline submit rejected: %v", err)
	}
}

func TestDeadlineInfeasiblePacedStream(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	_, err := eng.Submit(context.Background(), Request{
		Tracker:  neverTracker{},
		Duration: 3,
		Stream:   true,
		Paced:    true,
		Deadline: time.Second,
	})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("Submit err = %v, want ErrDeadlineInfeasible", err)
	}
	// The admission slot must have been released (nothing was admitted):
	// a subsequent feasible-deadline rejection-free submit would hang
	// otherwise. Close() below also hangs if a slot leaked.
	if st := eng.Stats(); st.ActiveStreams != 0 || st.Queued != 0 {
		t.Fatalf("rejected stream left engine state: %+v", st)
	}
}

func TestStatsLatencyPercentiles(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	const n = 20
	for i := 0; i < n; i++ {
		h, err := eng.Submit(context.Background(), Request{
			Tracker:  &fakeTracker{id: i, delay: time.Millisecond},
			Duration: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := h.Wait(context.Background()); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := eng.Stats()
	if st.QueueWait.Count != n {
		t.Fatalf("QueueWait.Count = %d, want %d", st.QueueWait.Count, n)
	}
	if st.EndToEnd.Count != n {
		t.Fatalf("EndToEnd.Count = %d, want %d", st.EndToEnd.Count, n)
	}
	// Each request spent >= 1 ms in service, so every end-to-end
	// percentile is at least that; percentiles are monotone.
	if st.EndToEnd.P50 < time.Millisecond {
		t.Fatalf("EndToEnd.P50 = %v, want >= 1ms", st.EndToEnd.P50)
	}
	if st.EndToEnd.P50 > st.EndToEnd.P95 || st.EndToEnd.P95 > st.EndToEnd.P99 {
		t.Fatalf("percentiles not monotone: %+v", st.EndToEnd)
	}
	if st.FrameLag.Count != 0 {
		t.Fatalf("FrameLag.Count = %d for a batch-only run", st.FrameLag.Count)
	}
	// Service history now exists, so a deadline far below the observed
	// mean with a congested queue is rejected for unpaced work too once
	// the queue bound kicks in. (Only the paced floor is asserted
	// elsewhere; here we just confirm history was recorded.)
	if eng.serviceEWMA.Load() <= 0 {
		t.Fatal("service EWMA not updated by completed batch requests")
	}
}

func TestLatencyRecorderWindow(t *testing.T) {
	var r LatencyRecorder
	if s := r.Snapshot(); s.Count != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("empty recorder snapshot = %+v", s)
	}
	// Overfill the ring: the window keeps the most recent samples, so
	// after maxLatencySamples large values the early small ones are gone.
	for i := 0; i < 100; i++ {
		r.Observe(time.Nanosecond)
	}
	for i := 0; i < maxLatencySamples; i++ {
		r.Observe(time.Second)
	}
	s := r.Snapshot()
	if s.Count != 100+maxLatencySamples {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P50 != time.Second || s.P99 != time.Second {
		t.Fatalf("window percentiles = %+v, want 1s (recent window only)", s)
	}
	r.Observe(-time.Second) // negative clamps to zero, never corrupts
	if got := r.Snapshot(); got.Count != 101+maxLatencySamples {
		t.Fatalf("Count after clamp = %d", got.Count)
	}
}
