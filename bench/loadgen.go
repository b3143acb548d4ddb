package main

// The load generator: closed and open loops over a backend. All wall
// time comes from a core.Clock, so the tests drive both loops on a
// core.FakeClock and assert exact latencies.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"wivi/internal/core"
)

// outcome is what a backend observed for one request.
type outcome struct {
	first, end time.Time // first frame in the client's hands; completion
	frames     int
	lagsMs     []float64 // per-frame lag stamped by the engine (streams)
	queueMs    float64   // the engine's queue wait for the request
	// code is "" on success, else the wire error code, "transport", or
	// "check" when the output failed a correctness check.
	code string
	err  error
	// id matches the request to its server-side handler timing in a
	// traced run.
	id string
}

// sample is one request as the load generator saw it.
type sample struct {
	req  request
	due  time.Time // when the request should have been sent
	sent time.Time // when it was
	outcome
}

// latency is the request's latency, timed from when it was due so that
// a stalled generator counts against the system, not in its favour.
func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// ttff is the client-observed time from due to first frame.
func (s sample) ttff() time.Duration { return s.first.Sub(s.due) }

// doFunc sends one request and waits for its outcome.
type doFunc func(ctx context.Context, req request) outcome

// runClosed runs a closed loop of clients: each sends next(i) for the
// next shared index i as soon as its previous request completes, until
// next reports false or, when deadline is non-zero, the deadline has
// passed. A request is due when its client became free.
func runClosed(ctx context.Context, clk core.Clock, start, deadline time.Time, clients int,
	next func(i int) (request, bool), do doFunc) []sample {
	var (
		idx atomic.Int64
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := start
			for ctx.Err() == nil {
				if !deadline.IsZero() && !clk.Now().Before(deadline) {
					return
				}
				req, ok := next(int(idx.Add(1) - 1))
				if !ok {
					return
				}
				s := sample{req: req, due: due, sent: clk.Now()}
				s.outcome = do(ctx, req)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				due = s.end
			}
		}()
	}
	wg.Wait()
	return out
}

// runOpen runs an open loop: reqs[i] is due at start+reqs[i].due, and
// senders goroutines send them in order, each sleeping until the next
// request is due. A request whose due time passes while every sender is
// busy goes out late; its latency still counts from the due time.
func runOpen(ctx context.Context, clk core.Clock, start time.Time, reqs []request, senders int, do doFunc) []sample {
	out := make([]sample, len(reqs))
	var (
		idx atomic.Int64
		wg  sync.WaitGroup
	)
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				if err := clk.Sleep(ctx, due.Sub(clk.Now())); err != nil {
					return
				}
				s := sample{req: reqs[i], due: due, sent: clk.Now()}
				s.outcome = do(ctx, reqs[i])
				out[i] = s
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		// Requests never sent leave zero samples behind; drop them.
		kept := out[:0]
		for _, s := range out {
			if !s.sent.IsZero() {
				kept = append(kept, s)
			}
		}
		out = kept
	}
	return out
}
