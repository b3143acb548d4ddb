// Package gesture implements Wi-Vi's through-wall gesture-based
// communication channel (§6): a human encodes bits with composable
// step-forward / step-backward gestures (a Manchester-like code), and the
// decoder recovers them from the smoothed-MUSIC angle-time image with
// matched filters and a peak detector.
//
// The decoder follows §6.2 exactly: two matched filters (a triangle above
// the zero line for forward steps and an inverted triangle below it for
// backward steps — implemented as one signed triangular correlation),
// then a standard peak detector, then pairing of consecutive opposite
// extrema into bits: (+,-) is '0', (-,+) is '1'. A gesture is decoded
// only when its SNR exceeds the gate (3 dB in the paper, §7.5); below
// that the gesture is erased, never flipped.
package gesture

import (
	"errors"
	"fmt"
	"math"

	"wivi/internal/dsp"
	"wivi/internal/isar"
	"wivi/internal/motion"
)

// DecoderConfig parameterizes Decode.
type DecoderConfig struct {
	// FrameT is the time between consecutive series samples (the image
	// frame period), in seconds.
	FrameT float64
	// StepDur is the expected duration of a single step in seconds; it
	// sizes the matched-filter triangle. Default 0.95.
	StepDur float64
	// SNRGateDB is the minimum per-gesture SNR; gestures below it are
	// erased (§7.5: "Wi-Vi decodes a gesture only when its SNR is greater
	// than 3dB").
	SNRGateDB float64
	// MaxSNRdB caps the measurable SNR: the noise floor is never taken
	// below max|mf| / 10^{MaxSNRdB/20}, modeling the receiver's finite
	// dynamic range (Fig. 7-5 tops out around 25-30 dB). It also keeps
	// micro-motion flickers from registering as steps when the true floor
	// estimate collapses to ~0 in very quiet traces. Default 30.
	MaxSNRdB float64
	// MaxPairGap is the maximum separation in seconds between the two
	// steps of one gesture. Default 3.
	MaxPairGap float64
	// MaxStepImbalanceDB is the maximum SNR difference between the two
	// steps of one gesture: a genuine forward/backward pair has
	// comparable energy (within the backward-shrink factor), while a body
	// -sway flicker paired with a real step does not. Default 12.
	MaxStepImbalanceDB float64
	// GuardAngleDeg excludes the DC band around zero degrees when
	// collapsing the image into the signed angle-energy series. Default 8.
	GuardAngleDeg float64
}

// DefaultDecoderConfig returns the paper-matched decoder parameters for
// an image with the given frame period.
func DefaultDecoderConfig(frameT float64) DecoderConfig {
	return DecoderConfig{
		FrameT:             frameT,
		StepDur:            0.95,
		SNRGateDB:          3,
		MaxSNRdB:           30,
		MaxPairGap:         3,
		MaxStepImbalanceDB: 12,
		GuardAngleDeg:      8,
	}
}

func (c DecoderConfig) validate() error {
	switch {
	case c.FrameT <= 0:
		return errors.New("gesture: FrameT must be positive")
	case c.StepDur <= 0:
		return errors.New("gesture: StepDur must be positive")
	case c.MaxPairGap <= 0:
		return errors.New("gesture: MaxPairGap must be positive")
	}
	return nil
}

// AngleEnergySeries collapses an angle-time image into the signed scalar
// series the matched filters consume: positive when motion energy
// concentrates at positive angles (toward the device), negative at
// negative angles. The pseudospectrum localizes the energy in angle and
// the window's physical motion power scales it, so the series amplitude
// tracks the strength of the reflection (and hence distance and wall
// attenuation).
//
// The per-frame motion power is baseline-subtracted (25th percentile
// across frames, i.e. the receiver-noise level of quiet frames), and
// deliberately NOT clamped at zero: quiet frames then fluctuate around
// zero at the physical noise scale, which is exactly the noise floor the
// decoder's SNR gate needs. (Their sign is random, which is harmless —
// noise is sign-symmetric anyway.)
func AngleEnergySeries(img *isar.Image, guardDeg float64) []float64 {
	out := make([]float64, img.NumFrames())
	if img.NumFrames() == 0 {
		return out
	}
	baseline := dsp.Percentile(img.MotionPower, 25)
	for f := 0; f < img.NumFrames(); f++ {
		mp := img.MotionPower[f] - baseline
		spec := img.Power[f]
		var pos, neg, tot float64
		for i, th := range img.ThetaDeg {
			v := spec[i] - 1 // pseudospectrum floor is 1
			if v <= 0 {
				continue
			}
			tot += v
			if th >= guardDeg {
				pos += v
			} else if th <= -guardDeg {
				neg += v
			}
		}
		if tot <= 0 {
			continue
		}
		out[f] = mp * (pos - neg) / tot
	}
	return out
}

// StepEvent is one detected half-gesture.
type StepEvent struct {
	// Time is the step's peak time in seconds.
	Time float64
	// Dir is the detected step direction (forward = peak above zero).
	Dir motion.StepDirection
	// SNRdB is the matched-filter peak SNR.
	SNRdB float64
	// MatchedAbs is the absolute matched-filter output at the peak (the
	// raw series-level energy of the step, before any SNR compression).
	MatchedAbs float64
}

// Result reports the decoder output.
type Result struct {
	// Bits are the decoded bits in order.
	Bits []motion.Bit
	// BitSNRsDB holds the per-bit gesture SNR (mean of the two step
	// SNRs), parallel to Bits.
	BitSNRsDB []float64
	// BitTimes holds the time of each decoded bit (midpoint of its two
	// steps), parallel to Bits.
	BitTimes []float64
	// Steps are all detected step events, including unpaired ones.
	Steps []StepEvent
	// UnpairedSteps counts detected extrema that could not be paired into
	// a bit.
	UnpairedSteps int
	// Erasures counts gestures whose steps were detected but whose SNR
	// fell below the gate — dropped, never flipped (§7.5).
	Erasures int
	// NoiseFloor is the estimated matched-filter noise envelope (the
	// level a pure-noise trace peaks at); step SNRs are relative to it.
	NoiseFloor float64
	// Matched is the summed matched-filter output (diagnostics; the
	// signal plotted in Fig. 6-3(a)).
	Matched []float64
}

// Decode runs the §6.2 decoding chain on the signed angle-energy series.
// times[i] is the timestamp of series[i]; both must be non-empty and of
// equal length. Step SNRs are taken from the matched-filter output
// relative to its noise envelope; DecodeWithPower substitutes the
// physical per-frame motion power when available.
func Decode(series, times []float64, cfg DecoderConfig) (*Result, error) {
	return DecodeWithPower(series, nil, times, cfg)
}

// DecodeWithPower is Decode with an optional per-frame physical power
// track (the image's motion power). When power is non-nil, each step's
// SNR is computed from the physics — the step's peak motion power over
// the quiet-frame baseline — rather than from the matched-filter output,
// and bits below the SNR gate are erased. This reproduces the paper's
// graded SNR-versus-distance behaviour (Figs. 7-4/7-5): the MUSIC
// pseudospectrum is strongly non-linear in input SNR, so the matched-
// filter output alone saturates, while the motion power follows the
// radar equation.
func DecodeWithPower(series, power, times []float64, cfg DecoderConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(series) == 0 || len(series) != len(times) {
		return nil, fmt.Errorf("gesture: series/times lengths %d/%d", len(series), len(times))
	}
	if power != nil && len(power) != len(series) {
		return nil, fmt.Errorf("gesture: power length %d != series %d", len(power), len(series))
	}
	// Matched filter: a unit-energy triangle of one step duration. The
	// signed series makes a single correlation equivalent to the paper's
	// two filters (triangle above zero + inverted triangle below) summed.
	tplLen := int(math.Round(cfg.StepDur/cfg.FrameT)) | 1 // odd length
	if tplLen < 3 {
		tplLen = 3
	}
	if tplLen > len(series) {
		tplLen = len(series) | 1
		if tplLen > len(series) {
			tplLen -= 2
		}
		if tplLen < 3 {
			return nil, fmt.Errorf("gesture: series too short (%d frames) for matched filter", len(series))
		}
	}
	tpl := dsp.TriangleTemplate(tplLen)
	var e float64
	for _, v := range tpl {
		e += v * v
	}
	norm := 1 / math.Sqrt(e)
	for i := range tpl {
		tpl[i] *= norm
	}
	mf := dsp.MatchedFilter(series, tpl)

	// Robust noise floor, two passes over the *raw series* (after the
	// unit-energy matched filter, white input noise keeps the same sigma,
	// but the filtered output is correlated over the template length and
	// would bias a direct MAD low). The trace may also be mostly gesture
	// (a 4-bit message fills most of its frames), so a global MAD would be
	// signal-inflated: pass 1 takes a provisional sigma from the quietest
	// segments, detects provisional peaks, masks their neighborhoods, and
	// pass 2 re-estimates sigma from the unmasked (signal-free) samples.
	// The decoder then gates against the *noise envelope* — the expected
	// maximum of len(mf) Gaussian draws, sqrt(2 ln n) sigma — so pure
	// noise sits at ~0 dB SNR and the 3 dB gate admits only genuine
	// gestures (noise never masquerades as one).
	envelope := math.Sqrt(2 * math.Log(float64(len(mf))+math.E))
	if envelope < 1.5 {
		envelope = 1.5
	}
	minDist := int(math.Round(0.6 * cfg.StepDur / cfg.FrameT))
	detect := func(sigma float64) []dsp.Peak {
		return dsp.FindPeaks(mf, dsp.PeakDetectorConfig{
			MinHeight:   sigma * envelope * math.Pow(10, cfg.SNRGateDB/20),
			MinDistance: minDist,
			Troughs:     true,
		})
	}
	maxSNR := cfg.MaxSNRdB
	if maxSNR <= 0 {
		maxSNR = 30
	}
	var mfMax float64
	for _, v := range mf {
		if v > mfMax {
			mfMax = v
		} else if -v > mfMax {
			mfMax = -v
		}
	}
	dynFloor := mfMax / (envelope * math.Pow(10, maxSNR/20))
	sigma := math.Max(quietSigma(series, tplLen), dynFloor)
	if sigma <= 0 {
		sigma = 1e-30
	}
	provisional := detect(sigma)
	if len(provisional) > 0 {
		masked := make([]bool, len(series))
		for _, p := range provisional {
			for i := p.Index - tplLen; i <= p.Index+tplLen; i++ {
				if i >= 0 && i < len(series) {
					masked[i] = true
				}
			}
		}
		var quiet []float64
		for i, v := range series {
			if !masked[i] {
				quiet = append(quiet, v)
			}
		}
		if len(quiet) >= tplLen {
			if s2 := madSigma(quiet); s2 > 0 {
				sigma = math.Max(s2, dynFloor)
			}
		}
	}
	floor := sigma * envelope
	peaks := detect(sigma)

	// Physical SNR track: step SNR = peak motion power near the step over
	// the quiet-frame baseline.
	var powerBaseline float64
	if power != nil {
		powerBaseline = dsp.Percentile(power, 25)
		if powerBaseline <= 0 {
			powerBaseline = 1e-300
		}
	}
	stepSNR := func(idx int) float64 {
		if power == nil {
			amp := mf[idx]
			if amp < 0 {
				amp = -amp
			}
			return 20 * math.Log10(amp/floor)
		}
		half := tplLen / 2
		peak := 0.0
		for i := idx - half; i <= idx+half; i++ {
			if i >= 0 && i < len(power) && power[i] > peak {
				peak = power[i]
			}
		}
		excess := peak - powerBaseline
		if excess <= 0 {
			return -300
		}
		snr := 10 * math.Log10(excess/powerBaseline)
		if snr > maxSNR {
			snr = maxSNR
		}
		return snr
	}

	res := &Result{NoiseFloor: floor, Matched: mf}
	for _, p := range peaks {
		dir := motion.StepForward
		if p.Value < 0 {
			dir = motion.StepBackward
		}
		res.Steps = append(res.Steps, StepEvent{
			Time:       times[p.Index],
			Dir:        dir,
			SNRdB:      stepSNR(p.Index),
			MatchedAbs: math.Abs(p.Value),
		})
	}
	// Pair consecutive opposite steps into bits. A pair must be opposite
	// in direction, close in time, and balanced in energy; when a
	// candidate pair is imbalanced, the weaker step is discarded as a
	// sway artifact and pairing resumes from the stronger one. Balance is
	// checked on BOTH energy scales: the physical step SNR and the raw
	// matched-filter amplitude. The SNR compresses near the gate (motion
	// power saturates at short range), so a pre-step body sway can tie a
	// genuine step's SNR while its matched amplitude — which tracks the
	// series directly — sits 20 dB below; a real forward/backward pair is
	// comparable on both.
	imbalance := cfg.MaxStepImbalanceDB
	if imbalance <= 0 {
		imbalance = 12
	}
	ampImbalanced := func(a, b StepEvent) (bool, bool) {
		if a.MatchedAbs <= 0 || b.MatchedAbs <= 0 {
			return a.MatchedAbs < b.MatchedAbs, true
		}
		diff := 20 * math.Log10(a.MatchedAbs/b.MatchedAbs)
		return a.MatchedAbs < b.MatchedAbs, diff > imbalance || diff < -imbalance
	}
	pending := append([]StepEvent(nil), res.Steps...)
	for i := 0; i < len(pending); {
		if i+1 >= len(pending) {
			res.UnpairedSteps++
			break
		}
		a, b := pending[i], pending[i+1]
		if a.Dir == b.Dir || b.Time-a.Time > cfg.MaxPairGap {
			res.UnpairedSteps++
			i++
			continue
		}
		aWeakerAmp, ampBad := ampImbalanced(a, b)
		if diff := a.SNRdB - b.SNRdB; diff > imbalance || diff < -imbalance || ampBad {
			res.UnpairedSteps++
			aWeaker := a.SNRdB < b.SNRdB
			if ampBad {
				aWeaker = aWeakerAmp
			}
			if aWeaker {
				i++ // drop the weaker leading step
			} else {
				// Drop the weaker trailing step; retry pairing a with the
				// next event.
				pending = append(pending[:i+1], pending[i+2:]...)
			}
			continue
		}
		bit := motion.Bit0
		if a.Dir == motion.StepBackward {
			bit = motion.Bit1
		}
		snr := (a.SNRdB + b.SNRdB) / 2
		if snr < cfg.SNRGateDB {
			// Below the gate: erase, never flip (§7.5).
			res.Erasures++
			i += 2
			continue
		}
		res.Bits = append(res.Bits, bit)
		res.BitSNRsDB = append(res.BitSNRsDB, snr)
		res.BitTimes = append(res.BitTimes, (a.Time+b.Time)/2)
		i += 2
	}
	return res, nil
}

// madSigma estimates a robust noise sigma from the median absolute
// deviation (consistent for Gaussian noise: sigma = MAD / 0.6745).
func madSigma(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	med := dsp.Median(x)
	dev := make([]float64, len(x))
	for i, v := range x {
		dev[i] = math.Abs(v - med)
	}
	return dsp.Median(dev) / 0.6745
}

// quietSigma estimates the noise sigma from the quietest parts of the
// trace: the matched output is split into segments of roughly one
// template length and the 25th percentile of the per-segment MADs is
// taken (inflated slightly to counter the selection bias toward
// low-variance segments). This stays accurate even when most of the
// trace carries gesture signal.
func quietSigma(x []float64, segLen int) float64 {
	if len(x) == 0 {
		return 0
	}
	if segLen < 4 {
		segLen = 4
	}
	nSeg := len(x) / segLen
	if nSeg < 4 {
		return madSigma(x)
	}
	mads := make([]float64, 0, nSeg)
	for s := 0; s < nSeg; s++ {
		seg := x[s*segLen : (s+1)*segLen]
		mads = append(mads, madSigma(seg))
	}
	return 1.2 * dsp.Percentile(mads, 25)
}

// DecodeImage is the convenience entry point: collapse the image into the
// signed angle-energy series and decode it with physical (motion-power)
// SNRs.
func DecodeImage(img *isar.Image, cfg DecoderConfig) (*Result, error) {
	if img.NumFrames() == 0 {
		return nil, errors.New("gesture: empty image")
	}
	series := AngleEnergySeries(img, cfg.GuardAngleDeg)
	return DecodeWithPower(series, img.MotionPower, img.Times, cfg)
}
