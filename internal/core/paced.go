package core

// Real-time pacing. The simulator synthesizes captures as fast as the
// CPU allows, so nothing downstream of it experiences the constraint the
// paper's hardware imposes: samples arrive at SampleT cadence and the
// processing chain either keeps up or falls behind on the wall clock.
// PacedFrontEnd restores that constraint for any front end — it delays
// each capture chunk until the wall-clock instant its last sample would
// have left a real radio, turning the streaming chain's latency figures
// (time-to-first-frame, per-frame lag) into honest real-time numbers.
//
// The samples themselves are untouched: pacing only moves delivery
// times, so a paced capture is bit-identical to an unpaced capture of
// the same front end, and every batch/stream identity invariant carries
// over unchanged.

import (
	"context"
	"time"
)

// PacedFrontEnd wraps a FrontEnd so capture samples are delivered at the
// radio's real cadence: chunk k, whose last sample is the n_k-th of the
// capture, is withheld until n_k*SampleT has elapsed on the injected
// Clock since the capture began, and a batch Capture returns only once
// its whole span has elapsed. Nulling measurements are control-plane
// operations and pass through unpaced.
type PacedFrontEnd struct {
	inner FrontEnd
	clock Clock
}

// NewPacedFrontEnd wraps fe with SampleT-cadence delivery on clock
// (nil = the real wall clock).
func NewPacedFrontEnd(fe FrontEnd, clock Clock) *PacedFrontEnd {
	if clock == nil {
		clock = RealClock()
	}
	return &PacedFrontEnd{inner: fe, clock: clock}
}

// Clock returns the clock pacing this front end.
func (p *PacedFrontEnd) Clock() Clock { return p.clock }

// MeasureSingle implements nulling.Sounder by delegation (unpaced:
// sounding is the control plane, not the sample stream).
func (p *PacedFrontEnd) MeasureSingle(ant int) ([]complex128, error) {
	return p.inner.MeasureSingle(ant)
}

// MeasureCombined implements nulling.Sounder by delegation.
func (p *PacedFrontEnd) MeasureCombined(pc []complex128, boostDB float64) ([]complex128, error) {
	return p.inner.MeasureCombined(pc, boostDB)
}

// Wavelength returns the wrapped front end's center wavelength.
func (p *PacedFrontEnd) Wavelength() float64 { return p.inner.Wavelength() }

// SampleT returns the wrapped front end's sample period — the cadence
// pacing enforces.
func (p *PacedFrontEnd) SampleT() float64 { return p.inner.SampleT() }

// NumSubcarriers returns the wrapped front end's subcarrier count.
func (p *PacedFrontEnd) NumSubcarriers() int { return p.inner.NumSubcarriers() }

// NoiseFloor returns the wrapped front end's noise floor.
func (p *PacedFrontEnd) NoiseFloor() float64 { return p.inner.NoiseFloor() }

// Capture records n samples and returns them only once the capture's
// wall-clock span (n*SampleT) has elapsed — a real radio's DMA completes
// when the last sample arrives, not when the CPU is done synthesizing.
// Use CaptureCtx when the pacing wait must be cancelable; the core
// pipeline does (a paced 60 s capture would otherwise pin its worker
// and the device mutex for the full minute after a cancellation).
func (p *PacedFrontEnd) Capture(pc []complex128, boostDB float64, startT float64, n int) ([][]complex128, error) {
	return p.CaptureCtx(context.Background(), pc, boostDB, startT, n)
}

// CaptureCtx is Capture with a cancelable pacing wait: ctx aborts the
// sleep-until-arrival (returning ctx's error), never the synthesis.
// core.Device.CaptureTraceCtx discovers this method structurally and
// threads its request context through.
func (p *PacedFrontEnd) CaptureCtx(ctx context.Context, pc []complex128, boostDB float64, startT float64, n int) ([][]complex128, error) {
	epoch := p.clock.Now()
	out, err := p.inner.Capture(pc, boostDB, startT, n)
	if err != nil {
		return nil, err
	}
	due := epoch.Add(sampleSpan(n, p.inner.SampleT()))
	if err := p.clock.Sleep(ctx, due.Sub(p.clock.Now())); err != nil {
		return nil, err
	}
	return out, nil
}

// StreamCapture implements FrontEnd: the wrapped front end produces the
// chunks, and each is delivered only at the instant its last sample
// "arrives" on the clock. Cancellation still flows through emit's error
// return and therefore lands at chunk boundaries, exactly as in the
// unpaced chain.
func (p *PacedFrontEnd) StreamCapture(pc []complex128, boostDB float64, startT float64, total, chunk int, emit func([][]complex128) error) error {
	epoch := p.clock.Now()
	sampleT := p.inner.SampleT()
	delivered := 0
	pacedEmit := func(sub [][]complex128) error {
		delivered += chunkSamples(sub)
		due := epoch.Add(sampleSpan(delivered, sampleT))
		if err := p.clock.Sleep(context.Background(), due.Sub(p.clock.Now())); err != nil {
			return err
		}
		return emit(sub)
	}
	return p.inner.StreamCapture(pc, boostDB, startT, total, chunk, pacedEmit)
}

// sampleSpan converts a sample count into its wall-clock span.
func sampleSpan(n int, sampleT float64) time.Duration {
	return time.Duration(float64(n) * sampleT * float64(time.Second))
}

// chunkSamples returns the per-subcarrier sample count of a chunk (the
// length of its first populated row; guard subcarriers may be empty).
func chunkSamples(sub [][]complex128) int {
	for _, row := range sub {
		if len(row) > 0 {
			return len(row)
		}
	}
	return 0
}
