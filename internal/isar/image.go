package isar

import (
	"context"
	"fmt"
	"math"

	"wivi/internal/dsp"
)

// Image is the angle-time output A'[theta, n] of the ISAR chain: one
// angular spectrum per analysis frame, plus per-frame physical metadata.
// This is what the paper plots in Figs. 5-2, 5-3, 6-1 and 7-2.
type Image struct {
	// ThetaDeg is the angle grid in degrees, ascending over [-90, 90].
	ThetaDeg []float64
	// Times holds the center time (seconds) of each frame.
	Times []float64
	// Power[f][t] is the angular spectrum of frame f at angle index t:
	// a pseudospectrum normalized to min = 1 (dimensionless, >= 1).
	Power [][]float64
	// Bartlett[f][t] is the power-bearing Bartlett spectrum of the same
	// frame (linear power units). The counting statistic uses it because
	// the MUSIC pseudospectrum is scale-free.
	Bartlett [][]float64
	// MotionPower[f] is the mean-removed channel power within the frame's
	// window — the physical strength of the motion-induced signal, used
	// to scale gesture energies and SNRs.
	MotionPower []float64
	// SignalDim[f] is the estimated signal-subspace dimension of frame f
	// (>= 1; the DC counts as one source).
	SignalDim []int
}

// NumFrames returns the number of analysis frames.
func (im *Image) NumFrames() int { return len(im.Times) }

// PowerDB returns the spectrum of frame f in dB (20 log10 of the
// normalized pseudospectrum amplitude — the weighting Eq. 5.4/5.5 use).
func (im *Image) PowerDB(f int) []float64 {
	out := make([]float64, len(im.Power[f]))
	for i, v := range im.Power[f] {
		if v < 1 {
			v = 1
		}
		out[i] = 20 * math.Log10(v)
	}
	return out
}

// DominantAngles returns up to k angle peaks (degrees) of frame f sorted
// by descending power, excluding a guard band of excludeDeg around zero
// (the DC line).
func (im *Image) DominantAngles(f, k int, excludeDeg float64) []float64 {
	spec := im.Power[f]
	peaks := dsp.FindPeaks(spec, dsp.PeakDetectorConfig{MinHeight: 1.5, MinDistance: 3})
	type cand struct {
		theta float64
		power float64
	}
	var cands []cand
	for _, p := range peaks {
		th := im.ThetaDeg[p.Index]
		if math.Abs(th) < excludeDeg {
			continue
		}
		cands = append(cands, cand{theta: th, power: p.Value})
	}
	// Selection sort by power (k is tiny).
	var out []float64
	for len(out) < k && len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].power > cands[best].power {
				best = i
			}
		}
		out = append(out, cands[best].theta)
		cands = append(cands[:best], cands[best+1:]...)
	}
	return out
}

// ComputeImage runs the smoothed-MUSIC chain (§5.2) over the channel time
// series h and returns the angle-time image.
func (p *Processor) ComputeImage(h []complex128) (*Image, error) {
	return p.ComputeImageCtx(context.Background(), h, 1)
}

// ComputeImageCtx is ComputeImage with context cancellation and per-frame
// fan-out over up to `workers` goroutines. The capture is one Append on a
// Streamer, which emits the independent frames (see frame.go) by index,
// so the result is identical to ComputeImage for every worker count;
// workers <= 1 runs sequentially.
func (p *Processor) ComputeImageCtx(ctx context.Context, h []complex128, workers int) (*Image, error) {
	w := p.cfg.Window
	if len(h) < w {
		return nil, fmt.Errorf("isar: %d samples < window %d", len(h), w)
	}
	// A batch image is the whole capture appended to the frame scheduler
	// at once, with no more workers than frames: a one-frame image runs
	// inline.
	n := (len(h)-w)/p.cfg.Hop + 1
	frames := make([]Frame, 0, n)
	s := p.NewStreamer(StreamConfig{Workers: min(workers, n)}, func(fr Frame) {
		frames = append(frames, fr)
	})
	_ = s.Append(ctx, h) // its error is the stream's first error, which Close returns
	if err := s.Close(); err != nil {
		return nil, err
	}
	return p.AssembleImage(frames), nil
}

// motionPower returns the mean-removed average power of a window: the
// energy of everything that moved during the window (static residuals and
// the DC cancel in the mean).
func motionPower(window []complex128) float64 {
	if len(window) == 0 {
		return 0
	}
	var mean complex128
	for _, v := range window {
		mean += v
	}
	mean /= complex(float64(len(window)), 0)
	var s float64
	for _, v := range window {
		d := v - mean
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s / float64(len(window))
}
