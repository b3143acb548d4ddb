package benchreport

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// StreamAllocsPerFrameGate bounds whole-chain heap allocations per
// streamed frame, with margin for per-scene setup amortized over short
// captures. The steady-state kernel allocates ~7 objects per frame (the
// Frame's two output slices plus amortized per-stream fixed cost — see
// TestPacedStreamSteadyStateAllocs); whole-chain accounting also
// amortizes the device trace, result assembly and first-scene pool
// warm-up and measures ~11. The chain before pooled scratch measured
// ~140, so the gate has margin on both sides.
const StreamAllocsPerFrameGate = 64

// Gate checks a report against the SLOs of the mode that wrote it and
// returns every violation, each named after its gate:
//
//	eval              no experiment missed its paper shape
//	paced-slo         real-time factor >= 1.0, p95 frame lag under one
//	                  analysis window, and the run no shorter than the
//	                  capture it paced
//	stream-alloc      0 < allocs/frame <= StreamAllocsPerFrameGate,
//	                  positive frames/s per core, and a mean first frame
//	                  within half the mean per-scene stream time
//	serve-slo         positive requests/s, requests/s at SLO and SLO
//	                  fraction, and wire identity proven on two replicas
//	tenant-isolation  (serve reports with per-tenant figures) the
//	                  saturated tenant drew typed 429s while the victim's
//	                  streams held their SLO, and every tenant completed
//	                  requests within its SLO
//
// Comparisons are written so that a NaN figure fails them.
func Gate(r *Report) error {
	var errs []error
	check := func(gate string, ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("gate %s: %s", gate, fmt.Sprintf(format, args...)))
		}
	}
	switch r.Mode {
	case "eval":
		check("eval", r.Failures == 0, "%d of %d experiments missed their paper shape", r.Failures, r.Experiments)
	case "paced":
		check("paced-slo", r.RealTimeFactor >= 1,
			"real-time factor %.2f < 1.0: the chain cannot keep up with the radio", r.RealTimeFactor)
		check("paced-slo", r.FrameLagP95Ms < r.WindowMs,
			"p95 frame lag %.1fms >= one analysis window (%.0fms): streaming falls behind real time", r.FrameLagP95Ms, r.WindowMs)
		check("paced-slo", r.ElapsedS >= r.TrackDurationS,
			"paced run finished in %.2fs < %.1fs capture span: pacing is not real-time", r.ElapsedS, r.TrackDurationS)
	case "stream":
		check("stream-alloc", r.AllocsPerFrame > 0 && r.AllocsPerFrame <= StreamAllocsPerFrameGate,
			"streamed chain allocates %.1f objects/frame, want (0, %d]: the frame kernel's pooling regressed", r.AllocsPerFrame, StreamAllocsPerFrameGate)
		check("stream-alloc", r.FramesPerSecPerCore > 0, "streamed %.2f frames/s per core", r.FramesPerSecPerCore)
		perScene := r.ElapsedS * 1e3 / float64(r.Scenes)
		check("stream-alloc", r.TTFFMs <= 0.5*perScene,
			"time-to-first-frame %.1fms is not small relative to the %.1fms stream: streaming latency regressed", r.TTFFMs, perScene)
	case "serve":
		check("serve-slo", r.RequestsPerSec > 0 && r.RequestsAtSLOPerSec > 0 && r.SLOOkFraction > 0,
			"%.2f req/s, %.2f req/s at SLO, SLO fraction %.2f: want all positive", r.RequestsPerSec, r.RequestsAtSLOPerSec, r.SLOOkFraction)
		check("serve-slo", r.Identity, "wire identity unproven: it takes two replica devices streaming bit-identical frames")
		if r.Tenants != nil {
			check("tenant-isolation", r.TenantIsolation, "a victim tenant missed its SLO while its neighbour was saturated")
			for _, name := range slices.Sorted(maps.Keys(r.Tenants)) {
				check("tenant-isolation", r.Tenants[name].RequestsAtSLOPerSec > 0, "tenant %s completed no request within its SLO", name)
			}
		}
	}
	return errors.Join(errs...)
}
