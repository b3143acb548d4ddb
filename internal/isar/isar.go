// Package isar implements Wi-Vi's second core contribution: tracking
// moving humans with a single receive antenna by treating the human's own
// motion as an inverse synthetic aperture (§5).
//
// Consecutive channel samples h[n..n+w] are grouped into overlapping
// windows and treated as an emulated antenna array with element spacing
// Delta = 2 v T (twice the one-way motion per sample, accounting for the
// round trip; §5.1). Two estimators of the angle-power function are
// provided:
//
//   - Beamform: the standard antenna-array sum of Eq. 5.1,
//     A[theta, n] = sum_i h[n+i] conj(e_theta(i)).
//   - Smoothed MUSIC (Eq. 5.3): spatial smoothing over subarrays
//     decorrelates the superimposed reflections of multiple humans, then
//     the MUSIC pseudospectrum sharpens the angular peaks.
//
// Sign convention: theta is positive when the human moves toward the
// device and negative when moving away, matching the paper. With the
// simulator's e^{-j 2 pi d / lambda} propagation convention, an
// approaching target's phase advances by +2 pi Delta / lambda per sample,
// so the steering vector is e_theta(i) = e^{+j 2 pi i Delta sin(theta) /
// lambda} and both estimators correlate against its conjugate — exactly
// the sum printed in Eq. 5.3.
package isar

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"wivi/internal/cmath"
	"wivi/internal/dsp"
)

// Config parameterizes the ISAR processing chain. The defaults match the
// prototype (§7.1): emulated arrays of w = 100 elements assembled over
// 0.32 s (sample period 3.2 ms), assumed walking speed 1 m/s, and a
// 2.4 GHz carrier (12.5 cm wavelength).
type Config struct {
	// Lambda is the carrier wavelength in meters.
	Lambda float64
	// SampleT is the channel sampling period in seconds.
	SampleT float64
	// Velocity is the assumed target speed in m/s (§5.1: errors in v
	// distort the angle estimate but preserve its sign).
	Velocity float64
	// Window is the emulated array size w.
	Window int
	// Subarray is the spatial-smoothing subarray size w' (< Window).
	Subarray int
	// Hop is the window hop between consecutive frames, in samples.
	Hop int
	// ThetaStepDeg is the angle grid resolution over [-90, 90] degrees.
	// The grid is symmetric about 0: a step that does not divide 90
	// stops at the last whole step inside ±90.
	ThetaStepDeg float64
	// MaxSources caps the estimated signal-subspace dimension (the DC
	// counts as one source).
	MaxSources int
	// EigNoiseFactor: eigenvalues above EigNoiseFactor times the median
	// eigenvalue are classified as signal. Default 8.
	EigNoiseFactor float64
}

// DefaultConfig returns the prototype parameters.
func DefaultConfig() Config {
	return Config{
		Lambda:         0.125,
		SampleT:        0.0032,
		Velocity:       1.0,
		Window:         100,
		Subarray:       32,
		Hop:            25,
		ThetaStepDeg:   1.0,
		MaxSources:     5,
		EigNoiseFactor: 8,
	}
}

// Delta returns the emulated antenna spacing Delta = 2 v T (§5.1:
// "Delta is twice the one-way separation to account for the round-trip").
func (c Config) Delta() float64 { return 2 * c.Velocity * c.SampleT }

// Validate reports configuration errors. Every float field must be
// finite: a NaN slips past the range checks below (every comparison with
// it is false), and since NaN != NaN, a config holding one could never
// be found again in NewProcessor's cache.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Lambda", c.Lambda},
		{"SampleT", c.SampleT},
		{"Velocity", c.Velocity},
		{"ThetaStepDeg", c.ThetaStepDeg},
		{"EigNoiseFactor", c.EigNoiseFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("isar: %s %v is not finite", f.name, f.v)
		}
	}
	switch {
	case c.Lambda <= 0:
		return errors.New("isar: Lambda must be positive")
	case c.SampleT <= 0:
		return errors.New("isar: SampleT must be positive")
	case c.Velocity <= 0:
		return errors.New("isar: Velocity must be positive")
	case c.Window < 4:
		return fmt.Errorf("isar: Window %d too small", c.Window)
	case c.Subarray < 3 || c.Subarray > c.Window:
		// Subarray 2 leaves no noise subspace: EstimateSignalDim keeps at
		// least one signal dimension, and MUSIC needs >= 2 noise
		// eigenvectors below it to be meaningful (the n-2 cap).
		return fmt.Errorf("isar: Subarray %d must be in [3, Window] (smaller leaves no noise subspace)", c.Subarray)
	case c.Hop < 1:
		return fmt.Errorf("isar: Hop %d must be >= 1", c.Hop)
	case c.ThetaStepDeg <= 0 || c.ThetaStepDeg > 45:
		return fmt.Errorf("isar: ThetaStepDeg %v out of range", c.ThetaStepDeg)
	case c.MaxSources < 1 || c.MaxSources >= c.Subarray:
		return fmt.Errorf("isar: MaxSources %d must be in [1, Subarray)", c.MaxSources)
	}
	return nil
}

// SteeringVector returns the emulated-array response e_theta of length n
// for spatial angle thetaRad: e_theta(i) = e^{+j 2 pi i Delta sin(theta) /
// lambda}.
func SteeringVector(n int, lambda, delta, thetaRad float64) cmath.Vector {
	v := make(cmath.Vector, n)
	phasePerElement := 2 * math.Pi * delta * math.Sin(thetaRad) / lambda
	for i := 0; i < n; i++ {
		v[i] = cmplx.Rect(1, phasePerElement*float64(i))
	}
	return v
}

// Processor precomputes the angle grid and steering vectors for a config.
// It holds only those immutable tables and a pool of frame scratch
// buffers, so one Processor serves any number of devices and goroutines
// at once; NewProcessor hands out one shared Processor per Config.
type Processor struct {
	cfg       Config
	thetasDeg []float64
	// steerSub[t] is the steering vector on the subarray (for MUSIC).
	steerSub []cmath.Vector
	// steerWin[t] is the steering vector on the full window (for
	// beamforming).
	steerWin []cmath.Vector
	// scratch pools the per-goroutine frame workspaces (see frame.go).
	scratch sync.Pool
}

// processors caches one Processor per distinct Config for the life of
// the process, as dsp caches its FFT plans: every device of one geometry
// shares the same steering tables (~380 KB at prototype geometry) and
// the same scratch pool instead of building its own. Only configs that pass
// Validate are stored, and Validate rejects NaN, so every key can be
// found again.
var processors sync.Map // Config -> *Processor

// NewProcessor validates cfg and returns the processor for it, built on
// first use and shared by every later caller with an equal Config.
func NewProcessor(cfg Config) (*Processor, error) {
	if p, ok := processors.Load(cfg); ok {
		return p.(*Processor), nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	actual, _ := processors.LoadOrStore(cfg, newProcessor(cfg))
	return actual.(*Processor), nil
}

// newProcessor builds the angle grid, the steering tables and the
// scratch pool for a validated config.
//
// The grid is mirror-symmetric by construction: θ_i = (i − h)·step for
// i = 0…2h, with h the number of whole steps in 90°, so θ_{2h−i} = −θ_i
// exactly. For a step that divides 90 it runs from −90 to 90 inclusive.
// The subarray steering vector of −θ is the conjugate of θ's, and the
// table's negative half is built as exactly that, which quadFormInto
// relies on to read each ±θ pair in one pass.
func newProcessor(cfg Config) *Processor {
	h := int(math.Floor(90/cfg.ThetaStepDeg + 1e-9))
	thetas := make([]float64, 2*h+1)
	for i := range thetas {
		thetas[i] = float64(i-h) * cfg.ThetaStepDeg
	}
	p := &Processor{cfg: cfg, thetasDeg: thetas}
	p.scratch.New = func() any { return p.newFrameScratch() }
	p.steerSub = make([]cmath.Vector, len(thetas))
	p.steerWin = make([]cmath.Vector, len(thetas))
	for i, th := range thetas {
		rad := th * math.Pi / 180
		if i >= h {
			p.steerSub[i] = SteeringVector(cfg.Subarray, cfg.Lambda, cfg.Delta(), rad)
		}
		p.steerWin[i] = SteeringVector(cfg.Window, cfg.Lambda, cfg.Delta(), rad)
	}
	for i := 0; i < h; i++ {
		p.steerSub[i] = p.steerSub[2*h-i].Conj()
	}
	return p
}

// Thetas returns the processor's angle grid in degrees. The slice is
// shared by every user of the processor and must not be modified.
func (p *Processor) Thetas() []float64 { return p.thetasDeg }

// Config returns the processor configuration.
func (p *Processor) Config() Config { return p.cfg }

// SmoothedCorrelation computes the spatially-smoothed correlation matrix
// of one window: the window is cut into overlapping subarrays of size w'
// and their outer products are averaged (§5.2). The window length must be
// at least the subarray size.
func (p *Processor) SmoothedCorrelation(window []complex128) (*cmath.Matrix, error) {
	w := p.cfg.Subarray
	if len(window) < w {
		return nil, fmt.Errorf("isar: window of %d samples shorter than subarray %d", len(window), w)
	}
	r := cmath.NewMatrix(w, w)
	p.smoothedCorrelationInto(window, r)
	return r, nil
}

// smoothedCorrelationInto is SmoothedCorrelation computing into dst
// (Subarray x Subarray), the frame kernel's covariance stage. window
// must hold at least Subarray samples.
//
// With w' = Subarray and L = len(window) - w' + 1 subarrays, the
// unnormalised sum S[i][j] = sum_{s<L} x[s+i]·conj(x[s+j]) has Hankel
// structure: shifting both indices by one drops the first product of the
// sum and adds one past its end,
//
//	S[i+1][j+1] = S[i][j] - x[i]·conj(x[j]) + x[i+L]·conj(x[j+L]).
//
// So one O(L·w') pass builds the first row, each superdiagonal follows
// from it in O(1) per entry, and the lower triangle is the conjugate
// mirror: O(L·w' + w'^2) instead of the direct sum's O(L·w'^2), about 3k
// complex multiply-adds instead of 70k at prototype geometry. The
// recursion is exact in real arithmetic; in floats it reorders the sums,
// within ~w'·eps of the direct sum (TestHankelCovarianceMatchesDirectSum).
// The result is exactly Hermitian with a real diagonal.
//
//wivi:hotpath
func (p *Processor) smoothedCorrelationInto(window []complex128, dst *cmath.Matrix) {
	w := p.cfg.Subarray
	l := len(window) - w + 1
	d := dst.Data
	for j := 0; j < w; j++ {
		var s complex128
		for t := 0; t < l; t++ {
			s += window[t] * cmplx.Conj(window[t+j])
		}
		d[j] = s
	}
	for i := 0; i+1 < w; i++ {
		xi, xil := window[i], window[i+l]
		row, next := d[i*w:(i+1)*w], d[(i+1)*w:(i+2)*w]
		for j := i; j+1 < w; j++ {
			next[j+1] = row[j] - xi*cmplx.Conj(window[j]) + xil*cmplx.Conj(window[j+l])
		}
	}
	inv := 1 / float64(l)
	for i := 0; i < w; i++ {
		row := d[i*w : (i+1)*w]
		row[i] = complex(real(row[i])*inv, 0)
		for j := i + 1; j < w; j++ {
			v := complex(real(row[j])*inv, imag(row[j])*inv)
			row[j] = v
			d[j*w+i] = cmplx.Conj(v)
		}
	}
}

// EstimateSignalDim classifies eigenvalues into signal and noise
// subspaces: eigenvalues above EigNoiseFactor times the median are
// signal. The estimate is capped to MaxSources and to n-2 (so at least
// two noise eigenvectors remain), then floored at one signal dimension
// (the DC) — the floor is applied last, so the result is never zero even
// for degenerate caps (a Subarray of 3 with n-2 = 1 yields 1, not 0).
func (p *Processor) EstimateSignalDim(values []float64) int {
	return p.estimateSignalDim(values, make([]float64, len(values)))
}

// estimateSignalDim is EstimateSignalDim with the median's sort scratch
// provided by the caller (cap >= len(values)).
//
//wivi:hotpath
func (p *Processor) estimateSignalDim(values, medBuf []float64) int {
	n := len(values)
	med := dsp.MedianBuf(values, medBuf)
	if med <= 0 {
		med = 1e-300
	}
	dim := 0
	for _, v := range values {
		if v > p.cfg.EigNoiseFactor*med {
			dim++
		}
	}
	if dim > p.cfg.MaxSources {
		dim = p.cfg.MaxSources
	}
	if dim > n-2 {
		dim = n - 2
	}
	if dim < 1 {
		dim = 1
	}
	return dim
}

// MUSICSpectrum evaluates the MUSIC pseudospectrum (Eq. 5.3) for the
// given noise-subspace basis on the processor's angle grid. The result is
// normalized so its minimum is 1.
func (p *Processor) MUSICSpectrum(noise []cmath.Vector) []float64 {
	out := make([]float64, len(p.thetasDeg))
	p.musicSpectrumInto(noise, out)
	return out
}

// musicSpectrumInto is MUSICSpectrum computing into out (length must be
// the angle-grid size). It is the direct noise-basis form of Eq. 5.3 —
// kept as the readable reference; the frame kernel evaluates the same
// pseudospectrum through musicSpectrumComplementInto.
//
//wivi:hotpath
func (p *Processor) musicSpectrumInto(noise []cmath.Vector, out []float64) {
	for ti, steer := range p.steerSub {
		var denom float64
		for _, u := range noise {
			// |steer^H u|^2 — the projection of the steering vector on
			// one noise eigenvector.
			d := steer.Dot(u)
			denom += real(d)*real(d) + imag(d)*imag(d)
		}
		if denom < 1e-18 {
			denom = 1e-18
		}
		out[ti] = 1 / denom
	}
	normalizeMin1(out)
}

// musicSpectrumComplementInto evaluates the same MUSIC pseudospectrum as
// musicSpectrumInto from the signal side of the eigenbasis, with the
// signal projector's diagonal sums landing in tmp (length Subarray). The
// eigenvectors form a unitary basis, so for a unit-modulus steering
// vector of length n the projections satisfy
//
//	sum_all |steer^H u_k|^2 = |steer|^2 = n,
//
// and the noise-projection denominator of Eq. 5.3 equals
// n - sum_{k < signalDim} |steer^H u_k|^2 = n - steer^H P steer, with the
// projector P = sum_k u_k u_k^H. With signalDim capped at MaxSources (5)
// against n-signalDim noise vectors (27 at the prototype subarray size),
// the eigensolver need only compute the signal vectors
// (cmath.EigWorkspace.LeadingEigenvectors). One pass over them sums P's
// superdiagonals, c_d = sum_k sum_i u_k[i] conj(u_k[i+d]), without
// forming P (~2.6k complex multiply-adds at k = 5, n = 32), and
// quadFormInto reads every angle's projection from the sums, where k dot
// products per angle cost ~29k over the grid. It is numerically
// equivalent to — not bit-identical with — the noise-sum form: the
// identity holds exactly in real arithmetic, and in floats the signal
// vectors are orthonormal to ~n*eps, so the two denominators agree to
// ~n*eps absolute. Near a sharp peak the denominator is small and the
// subtraction cancels, which amplifies that to a larger relative error
// (TestImageCloseToFromScratchChain), still far below the 1e-6 golden
// tolerance. The 1e-18 clamp absorbs any tiny negative complement when a
// steering vector lies entirely in the signal subspace.
//
//wivi:hotpath
func (p *Processor) musicSpectrumComplementInto(signal []cmath.Vector, out []float64, tmp cmath.Vector) {
	clear(tmp)
	for _, u := range signal {
		for d := range tmp {
			// Two accumulators, over even and odd i, halve the dependency
			// chain of the sum.
			v := u[d:]
			x := u[:len(v)]
			var s0, s1 complex128
			i := 0
			for ; i+1 < len(v); i += 2 {
				s0 += x[i] * cmplx.Conj(v[i])
				s1 += x[i+1] * cmplx.Conj(v[i+1])
			}
			if i < len(v) {
				s0 += x[i] * cmplx.Conj(v[i])
			}
			tmp[d] += s0 + s1
		}
	}
	p.quadFormInto(tmp, out)
	n := float64(p.cfg.Subarray)
	for ti, sig := range out {
		denom := n - sig
		if denom < 1e-18 {
			denom = 1e-18
		}
		out[ti] = 1 / denom
	}
	normalizeMin1(out)
}

// BartlettSpectrum evaluates the power-bearing Bartlett spectrum
// P(theta) = e^H R e / w' over the angle grid for a smoothed correlation
// matrix R. Unlike the MUSIC pseudospectrum it retains absolute power
// units, which the human-counting statistic needs (more movers put more
// power across more angles, §5.2).
func (p *Processor) BartlettSpectrum(r *cmath.Matrix) []float64 {
	out := make([]float64, len(p.thetasDeg))
	p.bartlettSpectrumInto(r, out, make(cmath.Vector, p.cfg.Subarray))
	return out
}

// bartlettSpectrumInto is BartlettSpectrum computing into out — the
// allocation-free kernel both spectrum entry points share, with the
// diagonal sums of R landing in tmp (length Subarray): one O(n^2) pass,
// from which quadFormInto reads every angle's e^H R e. The result is
// real by symmetry; the <0 clamp guards rounding at angles where the
// true power is ~0.
//
//wivi:hotpath
func (p *Processor) bartlettSpectrumInto(r *cmath.Matrix, out []float64, tmp cmath.Vector) {
	n := p.cfg.Subarray
	for d := 0; d < n; d++ {
		var s complex128
		for i := 0; i+d < n; i++ {
			s += r.At(i, i+d)
		}
		tmp[d] = s
	}
	p.quadFormInto(tmp, out)
	inv := 1 / float64(n)
	for ti, acc := range out {
		v := acc * inv
		if v < 0 {
			v = 0
		}
		out[ti] = v
	}
}

// quadFormInto evaluates the quadratic form e^H M e of a Hermitian matrix
// M at every grid angle from M's diagonal sums c (c[d] sums the d-th
// superdiagonal, length Subarray).
//
// The form collapses along diagonals: with the geometric steering vector
// steer_i = e^{i phi i},
//
//	e^H M e = sum_{i,j} M_ij e^{i phi (j-i)} = sum_d c_d e^{i phi d},
//
// and Hermitian symmetry folds the subdiagonals in as c_{-d} = conj(c_d),
// so e^H M e = c_0 + 2·Re sum_{d>=1} c_d e^{i phi d}. The diagonal sums
// are angle-independent, so one O(n^2) pass shared by all angles replaces
// an O(n^2) matrix-vector product per angle; each angle then costs O(n),
// with e^{i phi d} read straight from the precomputed steering table (the
// d-th element is exactly e^{i phi d}). The rewrite is exact in real
// arithmetic — M need not be Toeplitz, only Hermitian — and in floats
// only the summation order changes (TestQuadFormMatchesDirectSums).
//
// The grid is mirror-symmetric and the steering vector of −θ is the
// conjugate of θ's (newProcessor), so one pass over the first half of the
// table serves both angles of each ±θ pair: with A = sum_d Re c_d·Re e_d
// and B = sum_d Im c_d·Im e_d over θ's vector, θ reads c_0 + 2·(A − B)
// and −θ reads c_0 + 2·(A + B).
//
//wivi:hotpath
func (p *Processor) quadFormInto(c cmath.Vector, out []float64) {
	last := len(p.steerSub) - 1
	c0, c := real(c[0]), c[1:]
	for ti, steer := range p.steerSub[:last/2+1] {
		steer := steer[1 : len(c)+1]
		var a, b float64
		for d, cd := range c {
			a += real(cd) * real(steer[d])
			b += imag(cd) * imag(steer[d])
		}
		out[ti] = c0 + 2*(a-b)
		out[last-ti] = c0 + 2*(a+b)
	}
}

// BeamformSpectrum evaluates |A[theta]|^2 of Eq. 5.1 for one window on
// the processor's angle grid, normalized so its minimum is 1.
func (p *Processor) BeamformSpectrum(window []complex128) ([]float64, error) {
	out := make([]float64, len(p.thetasDeg))
	if err := p.beamformSpectrumInto(window, out); err != nil {
		return nil, err
	}
	return out, nil
}

// beamformSpectrumInto is BeamformSpectrum computing into out.
//
//wivi:hotpath
func (p *Processor) beamformSpectrumInto(window []complex128, out []float64) error {
	if len(window) < p.cfg.Window {
		return fmt.Errorf("isar: window of %d samples shorter than Window %d", len(window), p.cfg.Window)
	}
	for ti, steer := range p.steerWin {
		var acc complex128
		for i := 0; i < p.cfg.Window; i++ {
			acc += window[i] * cmplx.Conj(steer[i])
		}
		out[ti] = real(acc)*real(acc) + imag(acc)*imag(acc)
	}
	normalizeMin1(out)
	return nil
}

// normalizeMin1 scales the nonnegative spectrum x so its minimum is
// exactly 1, the contract the dB weighting of Eq. 5.4/5.5 relies on.
// Exact zeros (possible in a Beamform spectrum when a window cancels
// perfectly at some angle) are clamped up to the smallest positive entry
// before scaling — clamp-then-normalize — so the contract holds even
// then; an all-zero spectrum carries no angular information and
// normalizes to all ones.
func normalizeMin1(x []float64) {
	min := math.Inf(1)
	for _, v := range x {
		if v > 0 && v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		for i := range x {
			x[i] = 1
		}
		return
	}
	for i := range x {
		if x[i] < min {
			x[i] = 1
		} else {
			x[i] /= min
		}
	}
}
