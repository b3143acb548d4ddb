package pipeline

// Latency accounting. The engine keeps three wall-clock distributions —
// queue wait (accept → worker pickup), per-frame lag (streamed frame
// emit vs. its window's last-sample arrival) and end-to-end latency
// (accept → completion) — as bounded reservoirs of the most recent
// samples, and reports nearest-rank p50/p95/p99 in Stats(). A bounded
// window is the right shape for SLO monitoring: percentiles answer "how
// is the pool doing now", not "since process start", and the memory
// cost stays fixed however long the engine lives.

import (
	"sort"
	"sync"
	"time"
)

// maxLatencySamples bounds each recorder's reservoir. 4096 recent
// samples put the p99 estimate on ~40 observations — stable enough for
// a smoke gate while keeping snapshot sorting cheap.
const maxLatencySamples = 4096

// LatencyStats summarizes one latency dimension over the recorder's
// recent-sample window.
type LatencyStats struct {
	// Count is the lifetime number of observations (the percentiles are
	// computed over the most recent maxLatencySamples of them).
	Count int64
	// P50, P95 and P99 are nearest-rank percentiles; zero when no sample
	// has been recorded.
	P50, P95, P99 time.Duration
}

// LatencyRecorder is a concurrency-safe ring of the most recent
// observations. The engine keeps one per latency dimension; the serve
// tier (internal/serve) records its own handler-level dimensions with
// the same type so every layer reports identical percentile math. The
// zero value is ready to use.
type LatencyRecorder struct {
	mu    sync.Mutex
	ring  []time.Duration
	next  int
	count int64
}

// Observe folds one sample into the recorder (negative samples clamp to
// zero).
func (r *LatencyRecorder) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	if len(r.ring) < maxLatencySamples {
		r.ring = append(r.ring, d)
	} else {
		r.ring[r.next] = d
		r.next = (r.next + 1) % maxLatencySamples
	}
	r.count++
	r.mu.Unlock()
}

// Snapshot summarizes the recorder's current window.
func (r *LatencyRecorder) Snapshot() LatencyStats {
	r.mu.Lock()
	window := append([]time.Duration(nil), r.ring...)
	count := r.count
	r.mu.Unlock()
	s := LatencyStats{Count: count}
	if len(window) == 0 {
		return s
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	s.P50 = nearestRank(window, 50)
	s.P95 = nearestRank(window, 95)
	s.P99 = nearestRank(window, 99)
	return s
}

// nearestRank returns the nearest-rank p-th percentile of a sorted,
// non-empty window.
func nearestRank(sorted []time.Duration, p int) time.Duration {
	rank := (len(sorted)*p + 99) / 100 // ceil(len*p/100)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
