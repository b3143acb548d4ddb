package main

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"wivi/internal/core"
)

// service returns a doFunc that takes d on clk for every request.
func service(clk core.Clock, d time.Duration) doFunc {
	return func(ctx context.Context, req request) outcome {
		_ = clk.Sleep(ctx, d)
		now := clk.Now()
		return outcome{first: now, end: now, frames: 1}
	}
}

func msOf(t *testing.T, got []sample, f func(sample) time.Duration) []time.Duration {
	t.Helper()
	out := make([]time.Duration, len(got))
	for i, s := range got {
		out[i] = f(s)
	}
	return out
}

// A generator that falls behind sends late, and the lateness counts in
// the latency: requests are timed from when they were due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), true)
	start := clk.Now()
	reqs := []request{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	got := runOpen(context.Background(), clk, start, reqs, 1, service(clk, 25*time.Millisecond))
	if want := []time.Duration{25e6, 40e6, 55e6}; !reflect.DeepEqual(msOf(t, got, sample.latency), want) {
		t.Errorf("latencies %v, want %v", msOf(t, got, sample.latency), want)
	}
	delay := func(s sample) time.Duration { return s.sent.Sub(s.due) }
	if want := []time.Duration{0, 15e6, 30e6}; !reflect.DeepEqual(msOf(t, got, delay), want) {
		t.Errorf("send delays %v, want %v", msOf(t, got, delay), want)
	}
}

// A generator that keeps up waits for each due time and sends on it.
func TestOpenLoopWaitsForDue(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), true)
	start := clk.Now()
	reqs := []request{{due: 0}, {due: 100 * time.Millisecond}}
	got := runOpen(context.Background(), clk, start, reqs, 1, service(clk, 10*time.Millisecond))
	if got[1].sent != start.Add(100*time.Millisecond) {
		t.Errorf("second request sent at %v, want at its due time", got[1].sent.Sub(start))
	}
	if want := []time.Duration{10e6, 10e6}; !reflect.DeepEqual(msOf(t, got, sample.latency), want) {
		t.Errorf("latencies %v, want %v", msOf(t, got, sample.latency), want)
	}
}

// A closed-loop client sends its next request when the previous one
// completes, and starts none after the deadline.
func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), true)
	start := clk.Now()
	var seen []int
	next := func(i int) (request, bool) {
		seen = append(seen, i)
		return request{device: i}, true
	}
	got := runClosed(context.Background(), clk, start, start.Add(50*time.Millisecond), 1, next, service(clk, 20*time.Millisecond))
	if len(got) != 3 || !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("%d requests (indexes %v), want 3 started before the deadline", len(got), seen)
	}
	for i, s := range got {
		if s.latency() != 20*time.Millisecond || s.due != start.Add(time.Duration(i)*20*time.Millisecond) {
			t.Errorf("request %d due at %v with latency %v, want due when the client freed up and 20ms",
				i, s.due.Sub(start), s.latency())
		}
	}
}

func TestClosedLoopStopsWhenScheduleEnds(t *testing.T) {
	clk := core.NewFakeClock(time.Unix(0, 0), true)
	next := func(i int) (request, bool) { return request{}, i < 2 }
	got := runClosed(context.Background(), clk, clk.Now(), time.Time{}, 2, next, service(clk, time.Millisecond))
	if len(got) != 2 {
		t.Fatalf("%d requests, want 2", len(got))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 10: 1, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailLevel(t *testing.T) {
	for n, want := range map[int]float64{40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got, ok := tailLevel(n); !ok || got != want {
			t.Errorf("tailLevel(%d) = %v, %v; want %v", n, got, ok, want)
		}
	}
	if _, ok := tailLevel(39); ok {
		t.Error("39 samples support no tail beyond the median")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is how the benchmark's spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.v); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// serve_mixed's arrivals reproduce per seed and part, hold the mix
// exactly, and fall in order inside the part.
func TestMixedArrivalsReproducePerSeed(t *testing.T) {
	const seconds, rate, gestureDev = 5.0, 8.0, 6
	a := mixedArrivals(3, 0, seconds, rate, gestureDev, 2, 8.7)
	if b := mixedArrivals(3, 0, seconds, rate, gestureDev, 2, 8.7); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and part gave different arrivals")
	}
	if reflect.DeepEqual(a, mixedArrivals(4, 0, seconds, rate, gestureDev, 2, 8.7)) {
		t.Error("another seed gave the same arrivals")
	}
	if reflect.DeepEqual(a, mixedArrivals(3, 1, seconds, rate, gestureDev, 2, 8.7)) {
		t.Error("another part gave the same arrivals")
	}
	count := map[kind]int{}
	for _, r := range a {
		count[r.kind]++
		if r.due < 0 || r.due >= seconds*time.Second {
			t.Errorf("arrival due at %v, outside the part", r.due)
		}
		if (r.kind == kindGesture) != (r.device == gestureDev) {
			t.Errorf("%s request on device %d", r.kind, r.device)
		}
	}
	if want := map[kind]int{kindTrack: 24, kindStream: 10, kindGesture: 6}; !reflect.DeepEqual(count, want) {
		t.Errorf("mix %v, want %v", count, want)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Error("arrivals are not in due order")
	}
}
