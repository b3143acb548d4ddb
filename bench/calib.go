package main

// Host speed. On a shared 2-vCPU host the work a CPU does per second
// moves by a quarter within a minute, in steps that last seconds, and
// every timing moves with it. A fixed reference kernel, timed before and
// after each measured part, reads that speed, and the timings the CPU's
// speed sets are scaled to a nominal speed. The kernel lives here and
// never changes, so its speed measures the host, not the program under
// test: a change to the program moves the scaled figures exactly as it
// moves the raw ones.

import (
	"context"
	"math"
	"sync"
	"time"

	"wivi/internal/core"
)

const (
	// refN is the reference kernel's matrix order: the order of the
	// imaging kernel's covariance matrices.
	refN = 32
	// A probe is probeRounds bursts of probeCalls reference calls per
	// CPU, each burst after probeIdle of sleep: about 0.1 s in all.
	probeRounds = 8
	probeCalls  = 10
	probeIdle   = 10 * time.Millisecond
	// nominalSpeed is the probe's typical reading, in reference calls per
	// second, on the 2-vCPU host the bounds were set on. Scaled timings
	// read as they would on a host probing at this speed.
	nominalSpeed = 37000
)

// refKernel runs a fixed complex matrix-vector iteration of order refN,
// the arithmetic and working set of a Hermitian eigensolver sweep.
func refKernel() complex128 {
	var a [refN][refN]complex128
	var x, y [refN]complex128
	for i := range a {
		x[i] = complex(float64(i), 1)
		for j := range a[i] {
			a[i][j] = complex(float64(i-j), float64(i+j)/refN)
		}
	}
	for it := 0; it < 8; it++ {
		for i := range a {
			var s complex128
			for j := range a[i] {
				s += a[i][j] * x[j]
			}
			y[i] = s / refN
		}
		x = y
	}
	return x[0]
}

// refSink keeps the compiler from discarding the reference work.
var refSink complex128

// hostSpeed probes the host: probeRounds times, after probeIdle of
// sleep, it runs probeCalls reference calls on each of nproc goroutines
// at once. It returns the geometric mean of two speeds in reference
// calls per second: the median burst's, which includes waking idle CPUs
// as a request arriving at an idle server does, and the median single
// call's, which is how fast the CPUs compute once running.
func hostSpeed(ctx context.Context, clk core.Clock) float64 {
	n := nproc()
	var bursts, calls []float64
	sums := make([]complex128, n)
	durs := make([][]float64, n)
	for r := 0; r < probeRounds; r++ {
		// A canceled run is abandoned by its caller; the probe just ends
		// early.
		_ = clk.Sleep(ctx, probeIdle)
		var wg sync.WaitGroup
		t0 := clk.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < probeCalls; c++ {
					c0 := clk.Now()
					sums[g] += refKernel()
					durs[g] = append(durs[g], clk.Now().Sub(c0).Seconds())
				}
			}()
		}
		wg.Wait()
		bursts = append(bursts, probeCalls/clk.Now().Sub(t0).Seconds())
	}
	for g := range durs {
		calls = append(calls, durs[g]...)
		refSink += sums[g]
	}
	return math.Sqrt(median(bursts) / median(calls))
}

// timeScale takes a timing measured while the host probed at speed to
// the nominal speed: multiply a time by it, divide a rate by it.
func timeScale(speed float64) float64 { return speed / nominalSpeed }
