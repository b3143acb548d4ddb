package core

// Wall-clock abstraction and real-time pacing. The real system is
// clock-bound: the USRP delivers samples at the radio's cadence whatever
// the CPU does, so every latency figure that matters is measured against
// wall time. The simulator, by contrast, synthesizes samples as fast as
// the CPU allows. Clock is the seam between the two. With Config.Pace
// set, the capture loop releases each chunk only at the instant its last
// sample would have left a real radio, so time-to-first-frame and
// per-frame lag become honest real-time figures; the samples themselves
// are untouched, so every batch/stream identity carries over. Pacing and
// the per-frame lag accounting (Stream) take their time from the
// injected Clock, so production runs against RealClock while tests drive
// a FakeClock and assert exact cadence with zero wall-time cost.

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts wall-clock time for pacing and latency accounting.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock or ctx is done,
	// returning ctx's error in the latter case. Non-positive d returns
	// immediately (with ctx's error if it is already done).
	Sleep(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// timers holds stopped or expired *time.Timers for realClock.Sleep, which
// a paced capture calls once per chunk. With the module's go line at
// 1.23 or later, Stop and Reset leave no stale tick in a timer's
// channel, so a pooled timer needs no draining.
var timers sync.Pool

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t, _ := timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	defer timers.Put(t)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

// RealClock returns the process wall clock.
func RealClock() Clock { return realClock{} }

// FakeClock is a manually driven Clock for deterministic pacing tests.
// Time only moves when the test calls Advance — or, with auto-advance
// enabled, when a Sleep runs: the sleep then advances the clock by
// exactly its own duration and returns, so a paced capture runs at full
// CPU speed while every timestamp lands exactly on its due instant
// (zero jitter by construction). Auto-advance is the right mode for
// single-producer pacing tests; multi-party tests drive Advance
// explicitly.
type FakeClock struct {
	auto bool

	mu       sync.Mutex
	now      time.Time
	changed  chan struct{} // closed and replaced on every Advance
	sleepers int           // Sleep calls parked until a later instant
	parked   chan struct{} // closed and replaced whenever a Sleep parks
}

// NewFakeClock starts a fake clock at start. With autoAdvance, every
// Sleep advances the clock by its own duration instead of blocking.
func NewFakeClock(start time.Time, autoAdvance bool) *FakeClock {
	return &FakeClock{auto: autoAdvance, now: start, changed: make(chan struct{}), parked: make(chan struct{})}
}

// AwaitSleepers blocks until at least n Sleep calls are parked. A Sleep
// anchors its wake instant when it parks, so a test that advances only
// after AwaitSleepers knows exactly which instant each sleeper waits for.
func (c *FakeClock) AwaitSleepers(n int) {
	c.mu.Lock()
	for c.sleepers < n {
		parked := c.parked
		c.mu.Unlock()
		<-parked
		c.mu.Lock()
	}
	c.mu.Unlock()
}

// Now returns the fake clock's current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and wakes every sleeper whose
// deadline has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	close(c.changed)
	c.changed = make(chan struct{})
	c.mu.Unlock()
}

// Sleep blocks until the fake clock has advanced past now+d, or returns
// immediately after advancing the clock itself in auto-advance mode.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	c.mu.Lock()
	if c.auto {
		c.now = c.now.Add(d)
		c.mu.Unlock()
		return nil
	}
	target := c.now.Add(d)
	c.sleepers++
	close(c.parked)
	c.parked = make(chan struct{})
	defer func() {
		c.mu.Lock()
		c.sleepers--
		c.mu.Unlock()
	}()
	for c.now.Before(target) {
		changed := c.changed
		c.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
		c.mu.Lock()
	}
	c.mu.Unlock()
	return nil
}
