package isar

import (
	"sync/atomic"
	"time"
)

// kernelNow is the clock behind the kernel stage timers (kernelStats'
// covNs/eigNs/specNs telemetry). The timers run inside //wivi:hotpath
// per-frame kernels where threading a core.Clock through every call would
// widen the hot signatures for a value that never feeds the data path, so
// the seam is a package variable instead: production keeps the wall clock,
// and determinism tests swap in a scripted clock to assert exact stage
// accounting (see nanotime_test.go). This is the only sanctioned wall-clock
// read in the package.
//
//wivi:wallclock stage-timer telemetry only; swapped out by tests, never feeds the data path
var kernelNow = time.Now

// kernelStats aggregates process-wide frame-kernel counters: the frame
// count and the wall time per stage. The counters are cheap atomics
// bumped on every frame, so the instrumented numbers are the production
// numbers — wivi-bench reads them for its per-stage breakdown.
var kernelStats struct {
	frames               atomic.Int64
	covNs, eigNs, specNs atomic.Int64
}

// KernelStats is a snapshot of the frame-kernel counters.
type KernelStats struct {
	// Frames is the number of frames processed (all modes).
	Frames int64
	// CovNs, EigNs and SpecNs are cumulative wall nanoseconds in the
	// covariance, eigendecomposition and spectrum (Bartlett + MUSIC /
	// beamform) stages. Stages on concurrent workers accumulate in
	// parallel, so the sum can exceed elapsed wall time.
	CovNs, EigNs, SpecNs int64
}

// ReadKernelStats returns the current counter snapshot. The counters are
// process-wide and monotone; callers interested in one run should
// subtract a snapshot taken before it (or ResetKernelStats first).
func ReadKernelStats() KernelStats {
	return KernelStats{
		Frames: kernelStats.frames.Load(),
		CovNs:  kernelStats.covNs.Load(),
		EigNs:  kernelStats.eigNs.Load(),
		SpecNs: kernelStats.specNs.Load(),
	}
}

// ResetKernelStats zeroes the counters (benchmark harness use).
func ResetKernelStats() {
	kernelStats.frames.Store(0)
	kernelStats.covNs.Store(0)
	kernelStats.eigNs.Store(0)
	kernelStats.specNs.Store(0)
}
