// Package nulling implements Wi-Vi's first core contribution: MIMO
// interference nulling that eliminates the wall "flash" and all static
// reflections without ultra-wideband transmission (§4, Algorithm 1).
//
// The device has two transmit antennas and one receive antenna. It
// operates in three phases:
//
//  1. Initial nulling: estimate the per-subcarrier channels h1, h2 from
//     each transmit antenna, then precode the second antenna with
//     p = -h1/h2 so the static channel sums to (approximately) zero at
//     the receive antenna.
//  2. Power boosting: with the channel nulled, raise the transmit power
//     (+12 dB in the prototype) without saturating the receiver ADC,
//     lifting reflections from behind the wall out of the noise.
//  3. Iterative nulling: residual static reflections that were below the
//     ADC quantization floor become measurable after the boost. Because
//     only the combined channel is observable now, the algorithm
//     alternately refines h1 (even iterations) and h2 (odd iterations)
//     from the residual, re-precoding each time. Lemma 4.1.1 proves the
//     residual decays geometrically with ratio |delta2 / h2|.
//
// The package is written against a Sounder interface so the same
// algorithm runs over the full physical simulation (internal/sim) and
// over synthetic channels in tests.
package nulling

import (
	"errors"
	"fmt"
	"math"
)

// Sounder abstracts the physical measurements the nulling algorithm
// needs. Implementations add noise, ADC quantization and saturation as
// appropriate.
type Sounder interface {
	// MeasureSingle transmits the known preamble on transmit antenna ant
	// (1 or 2) alone at reference power, and returns the per-subcarrier
	// channel estimate.
	MeasureSingle(ant int) ([]complex128, error)

	// MeasureCombined transmits concurrently — antenna 1 sends x, antenna
	// 2 sends p[k]*x on each subcarrier k — with the given transmit power
	// boost in dB, and returns the per-subcarrier estimate of the combined
	// residual channel h1 + p*h2 (normalized by the boost).
	MeasureCombined(p []complex128, boostDB float64) ([]complex128, error)
}

// Config controls the nulling procedure.
type Config struct {
	// BoostDB is the transmit power boost applied after initial nulling.
	// The prototype uses 12 dB, limited by the USRP linear range (§4.1.2).
	BoostDB float64
	// MaxIterations bounds the iterative-nulling loop.
	MaxIterations int
	// ConvergeRel stops iterating once the RMS residual falls below
	// ConvergeRel times the pre-null RMS channel magnitude.
	ConvergeRel float64
}

// DefaultConfig matches the paper's prototype.
func DefaultConfig() Config {
	return Config{BoostDB: 12, MaxIterations: 12, ConvergeRel: 1e-7}
}

// Result reports the outcome of the nulling procedure. Run never writes
// to a Result after returning it, so a Result is safe for concurrent
// readers as long as no caller mutates it.
type Result struct {
	// P is the final per-subcarrier precoding vector for antenna 2.
	P []complex128
	// H1, H2 are the final per-subcarrier channel estimates.
	H1, H2 []complex128
	// Residual is the final measured residual channel per subcarrier.
	Residual []complex128
	// History records the RMS residual magnitude after each combined
	// measurement (History[0] is the residual right after initial
	// nulling).
	History []float64
	// Iterations is the number of iterative-nulling refinement steps
	// actually executed.
	Iterations int
	// PreNullRMS is the RMS magnitude of the un-nulled static channel
	// (both antennas transmitting without precoding), the baseline for
	// AchievedNullingDB.
	PreNullRMS float64
	// BoostDB echoes the applied power boost.
	BoostDB float64
}

// AchievedNullingDB returns the reduction in static-path power achieved
// by nulling, in dB — the metric of Fig. 7-7 (median ~40 dB in the
// paper's experiments).
func (r *Result) AchievedNullingDB() float64 {
	post := rms(r.Residual)
	if post <= 0 {
		return 300
	}
	if r.PreNullRMS <= 0 {
		return 0
	}
	return 20 * math.Log10(r.PreNullRMS/post)
}

// Errors returned by Run.
var (
	ErrNoSubcarriers   = errors.New("nulling: sounder returned no subcarriers")
	ErrLengthMismatch  = errors.New("nulling: per-subcarrier lengths differ between measurements")
	ErrDegenerateModel = errors.New("nulling: channel estimates are degenerate (zero h2 on every subcarrier)")
)

// Run executes the full nulling procedure of Algorithm 1 against the
// sounder.
func Run(s Sounder, cfg Config) (*Result, error) {
	if cfg.MaxIterations < 0 {
		return nil, fmt.Errorf("nulling: negative MaxIterations %d", cfg.MaxIterations)
	}
	// --- Phase 1: initial channel estimation. ---
	h1, err := s.MeasureSingle(1)
	if err != nil {
		return nil, fmt.Errorf("nulling: measuring h1: %w", err)
	}
	h2, err := s.MeasureSingle(2)
	if err != nil {
		return nil, fmt.Errorf("nulling: measuring h2: %w", err)
	}
	if len(h1) == 0 || len(h2) == 0 {
		return nil, ErrNoSubcarriers
	}
	if len(h1) != len(h2) {
		return nil, ErrLengthMismatch
	}
	n := len(h1)
	res := &Result{
		H1:      append([]complex128(nil), h1...),
		H2:      append([]complex128(nil), h2...),
		P:       make([]complex128, n),
		BoostDB: cfg.BoostDB,
	}
	// Baseline: the static channel the receiver would see with both
	// antennas transmitting unprecoded.
	pre := make([]complex128, n)
	usable := 0
	for k := 0; k < n; k++ {
		pre[k] = h1[k] + h2[k]
		if h2[k] != 0 {
			usable++
		}
	}
	if usable == 0 {
		return nil, ErrDegenerateModel
	}
	res.PreNullRMS = rms(pre)

	// Pre-coding: p = -h1/h2 per subcarrier.
	computeP(res.P, res.H1, res.H2)

	// --- Phase 2 + 3: boost power, then iteratively refine. ---
	hres, err := s.MeasureCombined(res.P, cfg.BoostDB)
	if err != nil {
		return nil, fmt.Errorf("nulling: initial combined measurement: %w", err)
	}
	if len(hres) != n {
		return nil, ErrLengthMismatch
	}
	res.History = append(res.History, rms(hres))

	tol := cfg.ConvergeRel * res.PreNullRMS
	for i := 0; i < cfg.MaxIterations; i++ {
		if rms(hres) <= tol {
			break
		}
		if i%2 == 0 {
			// Even step (Eq. 4.2): assume h2-hat exact, solve for h1.
			for k := 0; k < n; k++ {
				res.H1[k] = hres[k] + res.H1[k]
			}
		} else {
			// Odd step (Eq. 4.3): assume h1-hat exact, refine h2.
			for k := 0; k < n; k++ {
				if res.H1[k] == 0 {
					continue
				}
				res.H2[k] = (1 - hres[k]/res.H1[k]) * res.H2[k]
			}
		}
		computeP(res.P, res.H1, res.H2)
		hres, err = s.MeasureCombined(res.P, cfg.BoostDB)
		if err != nil {
			return nil, fmt.Errorf("nulling: combined measurement at iteration %d: %w", i, err)
		}
		if len(hres) != n {
			return nil, ErrLengthMismatch
		}
		res.Iterations++
		res.History = append(res.History, rms(hres))
	}
	res.Residual = hres
	return res, nil
}

// computeP fills p with -h1/h2, leaving zero where h2 vanishes (those
// subcarriers cannot be nulled; in practice noise makes h2 nonzero).
func computeP(p, h1, h2 []complex128) {
	for k := range p {
		if h2[k] == 0 {
			p[k] = 0
			continue
		}
		p[k] = -h1[k] / h2[k]
	}
}

func rms(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s / float64(len(x)))
}

// ConvergenceRatio estimates the per-iteration geometric decay ratio from
// a residual history (Lemma 4.1.1: |hres(i)| = |hres(0)| * |d2/h2|^i).
// It returns the geometric mean ratio of successive history entries,
// ignoring entries once they reach floor (where measurement noise
// dominates). NaN is returned when fewer than two usable entries exist.
func ConvergenceRatio(history []float64, floor float64) float64 {
	var logs []float64
	for i := 1; i < len(history); i++ {
		if history[i-1] <= floor || history[i] <= floor {
			break
		}
		logs = append(logs, math.Log(history[i]/history[i-1]))
	}
	if len(logs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Exp(sum / float64(len(logs)))
}
