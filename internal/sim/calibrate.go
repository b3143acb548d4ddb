// Package sim assembles the full Wi-Vi physical simulation: scenes
// (rooms, walls, clutter, humans), the three-antenna device with its SDR
// front end, and the channel synthesis that drives the nulling and ISAR
// cores. It substitutes for the paper's USRP N210 testbed (§7.1-7.2); see
// DESIGN.md §2 for the substitution rationale.
package sim

import (
	"fmt"

	"wivi/internal/rf"
)

// Calibration centralizes the constants that map the simulator onto the
// paper's operating point. Amplitudes are in normalized receiver units:
// the stage-1 reference transmit amplitude is 1.
//
// The values below were chosen so that, with the default scene geometry:
//
//   - achieved nulling lands around a 40 dB median (Fig. 7-7);
//   - a gesture behind a 6" hollow wall crosses the 3 dB decoder gate
//     between 8 m and 9 m (Fig. 7-4).
//
// The paper's free-space gesture SNR at 3 m, ~25-35 dB (Fig. 7-6(b)), is
// not met: the full-scale F7.6 experiment (seed 1) measures 17.1 dB mean
// (12.8-21.3 dB over its trials) with gesture.Result.BitSNRsDB. Whether
// the paper defines SNR differently is open (DESIGN §3).
type Calibration struct {
	// TxRefAmp is the stage-1 (pre-boost) transmit amplitude.
	TxRefAmp float64
	// TxMaxAmp is the transmitter linear range; requesting more clips
	// (USRP linear range ~20 mW, §7.5). It allows the 12 dB boost exactly.
	TxMaxAmp float64
	// BoostDB is the post-null transmit power boost (§4.1.2).
	BoostDB float64
	// NoisePower is the thermal noise power per raw symbol estimate, per
	// subcarrier, in normalized units.
	NoisePower float64
	// EstAverages is the number of raw symbols averaged per channel
	// estimate during nulling (each estimate takes a few ms, §4.1.3).
	EstAverages int
	// TrackAverages is the number of raw symbols averaged per tracking
	// sample: the prototype collapses 0.32 s into a w=100 array, i.e.
	// 3.2 ms per sample, ~200 OFDM symbols at 5 MHz (§7.1).
	TrackAverages int
	// PhaseNoiseStd is the stationary RMS common-oscillator phase jitter
	// in radians, modeled as an Ornstein-Uhlenbeck process with
	// PhaseNoiseTau correlation (1/f-like: the power sits at low
	// frequencies, inside the human Doppler band). It multiplies every
	// received signal: the 40 dB-stronger flash turns it into in-band
	// clutter that buries moving targets for no-nulling narrowband
	// systems (§2.1 [30, 31]); after nulling the static residual is tiny
	// and the clutter vanishes with it.
	PhaseNoiseStd float64
	// PhaseNoiseTau is the phase-noise correlation time in seconds.
	PhaseNoiseTau float64
	// ADCBits is the receiver ADC resolution per rail.
	ADCBits int
	// ADCFullScale is the ADC full-scale amplitude after the receive
	// gain.
	ADCFullScale float64
	// AGCTargetFrac is the fraction of full scale the AGC aims the
	// dominant signal at during stage-1 sounding (0.4: a 12 dB boost
	// without nulling saturates the ADC, reproducing the flash effect).
	AGCTargetFrac float64
	// HumanRCS is the torso radar cross-section in m^2.
	HumanRCS float64
	// LimbRCS is the limb scatterer radar cross-section in m^2.
	LimbRCS float64
	// SampleT is the tracking sample period in seconds.
	SampleT float64
	// NumSubcarriers is the number of simulated OFDM subcarriers. The
	// prototype estimates 64 and combines them; simulating 16 spanning
	// the same 5 MHz preserves the combining math at lower cost (the 64
	// estimates are effectively band-averaged into coarser bins).
	NumSubcarriers int
	// CenterHz and BandwidthHz define the RF band.
	CenterHz    float64
	BandwidthHz float64
}

// DefaultCalibration returns the paper-matched operating point.
func DefaultCalibration() Calibration {
	return Calibration{
		TxRefAmp:       1.0,
		TxMaxAmp:       4.1, // 12 dB above TxRefAmp, plus margin
		BoostDB:        12,
		NoisePower:     1e-6, // sigma = 1e-3 per raw symbol estimate
		EstAverages:    2,
		TrackAverages:  200,
		PhaseNoiseStd:  8e-3,
		PhaseNoiseTau:  0.3,
		ADCBits:        12,
		ADCFullScale:   1.0,
		AGCTargetFrac:  0.4,
		HumanRCS:       1.0,
		LimbRCS:        0.15,
		SampleT:        0.0032,
		NumSubcarriers: 16,
		CenterHz:       rf.ISMCenterHz,
		BandwidthHz:    rf.DefaultBandwidthHz,
	}
}

// Validate reports calibration errors.
func (c Calibration) Validate() error {
	switch {
	case c.TxRefAmp <= 0:
		return fmt.Errorf("sim: TxRefAmp must be positive")
	case c.TxMaxAmp < c.TxRefAmp:
		return fmt.Errorf("sim: TxMaxAmp %v below TxRefAmp %v", c.TxMaxAmp, c.TxRefAmp)
	case c.NoisePower < 0:
		return fmt.Errorf("sim: negative NoisePower")
	case c.EstAverages < 1 || c.TrackAverages < 1:
		return fmt.Errorf("sim: averaging factors must be >= 1")
	case c.PhaseNoiseStd < 0:
		return fmt.Errorf("sim: negative PhaseNoiseStd")
	case c.ADCBits < 2:
		return fmt.Errorf("sim: ADCBits %d too small", c.ADCBits)
	case c.ADCFullScale <= 0:
		return fmt.Errorf("sim: ADCFullScale must be positive")
	case c.AGCTargetFrac <= 0 || c.AGCTargetFrac >= 1:
		return fmt.Errorf("sim: AGCTargetFrac %v out of (0,1)", c.AGCTargetFrac)
	case c.SampleT <= 0:
		return fmt.Errorf("sim: SampleT must be positive")
	case c.NumSubcarriers < 1:
		return fmt.Errorf("sim: NumSubcarriers must be >= 1")
	case c.CenterHz <= 0 || c.BandwidthHz <= 0:
		return fmt.Errorf("sim: band parameters must be positive")
	case c.BandwidthHz >= c.CenterHz:
		return fmt.Errorf("sim: bandwidth exceeds carrier")
	}
	return nil
}
