package eval

import (
	"math"

	"wivi/internal/baseline"
	"wivi/internal/dsp"
	"wivi/internal/isar"
	"wivi/internal/nulling"
	"wivi/internal/rf"
	"wivi/internal/rng"
	"wivi/internal/sim"
)

// AblationNulling (A1) compares Wi-Vi against the no-nulling narrowband
// Doppler baseline behind walls of increasing density. Without nulling,
// the flash consumes the receiver's dynamic range and motion becomes
// undetectable behind dense walls (§2.1 [30, 31]); with nulling, it
// stays detectable.
func AblationNulling(o Options) *Report {
	r := &Report{
		ID:    "A1",
		Title: "Nulling on/off: Doppler-only baseline vs Wi-Vi behind walls",
		PaperClaim: "Doppler-only narrowband systems work in free space / light " +
			"walls but fail behind dense material; Wi-Vi's nulling keeps working",
	}
	duration := o.pickF(3, 5)
	n := int(duration / sim.DefaultCalibration().SampleT)
	walls := []rf.Material{rf.FreeSpace, rf.HollowWall, rf.Concrete8}

	// inBandSNR measures in-band Doppler energy for a scene with or
	// without a walker, raw (no nulling) or nulled.
	inBandSNR := func(wall rf.Material, walker, nulled bool, seed int64) (float64, error) {
		sc := sim.NewScene(sim.SceneConfig{Seed: seed, Wall: wall})
		if walker {
			if _, err := sc.AddWalker(duration + 2); err != nil {
				return 0, err
			}
		}
		fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
		if err != nil {
			return 0, err
		}
		var capture [][]complex128
		if nulled {
			res, err := nulling.Run(fe, nulling.DefaultConfig())
			if err != nil {
				return 0, err
			}
			capture, err = fe.Capture(res.P, fe.Cal.BoostDB, 0, n)
			if err != nil {
				return 0, err
			}
		} else {
			capture, err = fe.CaptureRaw(0, n)
			if err != nil {
				return 0, err
			}
		}
		combined, err := baseline.CombineSubs(capture)
		if err != nil {
			return 0, err
		}
		dop, err := baseline.Doppler(combined, baseline.DefaultDopplerConfig(fe.SampleT()))
		if err != nil {
			return 0, err
		}
		return dop.SNRdB, nil
	}

	// A detector is only useful if the with-human reading clearly exceeds
	// the empty-room reading: behind dense walls the flash's oscillator
	// phase noise fills the Doppler band, erasing the raw baseline's
	// margin. Nulling removes the flash and restores it.
	const marginDB = 6.0
	r.addf("%-22s %24s %24s", "obstruction", "raw margin (human-empty)", "nulled margin")
	rawOK := map[string]bool{}
	nulledOK := map[string]bool{}
	for _, wall := range walls {
		seed := seedFor(o, "a1-"+wall.Name, 0)
		rawH, err := inBandSNR(wall, true, false, seed)
		if err != nil {
			return r.fail(err)
		}
		rawE, err := inBandSNR(wall, false, false, seed+1)
		if err != nil {
			return r.fail(err)
		}
		nulH, err := inBandSNR(wall, true, true, seed+2)
		if err != nil {
			return r.fail(err)
		}
		nulE, err := inBandSNR(wall, false, true, seed+3)
		if err != nil {
			return r.fail(err)
		}
		rawMargin := rawH - rawE
		nulMargin := nulH - nulE
		rawOK[wall.Name] = rawMargin >= marginDB
		nulledOK[wall.Name] = nulMargin >= marginDB
		r.addf("%-22s %17.1f dB %s %17.1f dB %s", wall.Name,
			rawMargin, yesNo(rawOK[wall.Name]), nulMargin, yesNo(nulledOK[wall.Name]))
	}
	// Shape: Wi-Vi discriminates through everything; the raw baseline
	// works in free space but loses discrimination behind concrete.
	r.Pass = nulledOK[rf.FreeSpace.Name] && nulledOK[rf.HollowWall.Name] &&
		nulledOK[rf.Concrete8.Name] && rawOK[rf.FreeSpace.Name] &&
		!rawOK[rf.Concrete8.Name]
	return r
}

func yesNo(b bool) string {
	if b {
		return "detect"
	}
	return "miss  "
}

// AblationUWBBandwidth (A2) sweeps the pulse bandwidth of the UWB
// time-gating baseline: separating the flash for a near-wall human
// requires GHz-class bandwidth, which is Wi-Vi's core motivation (§1).
func AblationUWBBandwidth(o Options) *Report {
	r := &Report{
		ID:    "A2",
		Title: "UWB baseline: bandwidth needed to time-gate the flash",
		PaperClaim: "state-of-the-art through-wall radar needs ~2 GHz; Wi-Vi " +
			"uses a 20 MHz-class Wi-Fi channel and nulls instead",
	}
	const flashToHumanDB = 45
	const margin = 3.0
	r.addf("%-12s %14s %14s %14s", "bandwidth", "res (m)", "0.5 m human", "3 m human")
	bands := []float64{20e6, 100e6, 500e6, 1e9, 2e9}
	detect05 := map[float64]bool{}
	for _, bw := range bands {
		u := baseline.UWBRadar{BandwidthHz: bw}
		res, err := u.RangeResolution()
		if err != nil {
			return r.fail(err)
		}
		near, err := u.Detects(0.5, flashToHumanDB, margin)
		if err != nil {
			return r.fail(err)
		}
		far, err := u.Detects(3, flashToHumanDB, margin)
		if err != nil {
			return r.fail(err)
		}
		detect05[bw] = near
		r.addf("%9.0f MHz %14.3f %14s %14s", bw/1e6, res, yesNo(near), yesNo(far))
	}
	minBW, err := baseline.MinBandwidthHz(0.5, flashToHumanDB, margin)
	if err != nil {
		return r.fail(err)
	}
	r.addf("minimum bandwidth for a 0.5 m-deep human: %.2f GHz", minBW/1e9)
	r.Pass = !detect05[20e6] && detect05[2e9] && minBW > 0.3e9 && minBW < 10e9
	return r
}

// AblationSmoothing (A3) compares smoothed MUSIC against plain
// beamforming on two perfectly coherent movers: only the smoothed
// estimator resolves both (§5.2).
func AblationSmoothing(o Options) *Report {
	r := &Report{
		ID:    "A3",
		Title: "Smoothed MUSIC vs plain beamforming on coherent movers",
		PaperClaim: "reflections of multiple humans are correlated; spatial " +
			"smoothing decorrelates them and MUSIC then shows sharper peaks than beamforming",
	}
	cfg := isar.DefaultConfig()
	cfg.Window = 96
	cfg.Subarray = 32
	proc, err := isar.NewProcessor(cfg)
	if err != nil {
		return r.fail(err)
	}
	// Two coherent targets (same waveform, different angles) + noise.
	s := rng.DeriveSeed(o.Seed, "a3")
	h := make([]complex128, cfg.Window)
	for i := range h {
		phase1 := 2 * math.Pi * 2 * 0.8 * cfg.SampleT * float64(i) / cfg.Lambda
		phase2 := 2 * math.Pi * 2 * -0.5 * cfg.SampleT * float64(i) / cfg.Lambda
		h[i] = complexFromPolar(1, phase1) + complexFromPolar(1, phase2) + s.ComplexGaussian(1e-6)
	}
	fr, err := proc.ProcessFrame(h, isar.FrameSpec{})
	if err != nil {
		return r.fail(err)
	}
	music := fr.Power
	bf, err := proc.BeamformSpectrum(h)
	if err != nil {
		return r.fail(err)
	}
	musicPeaks := countResolvedPeaks(music, proc.Thetas())
	bfPeaks := countResolvedPeaks(bf, proc.Thetas())
	drMusic := dsp.DB(maxOf(music) / dsp.Median(music))
	drBF := dsp.DB(maxOf(bf) / dsp.Median(bf))
	r.addf("smoothed MUSIC: %d resolved peaks, dynamic range %.1f dB", musicPeaks, drMusic)
	r.addf("plain beamforming: %d resolved peaks, dynamic range %.1f dB", bfPeaks, drBF)
	r.Pass = musicPeaks >= 2 && drMusic > drBF
	return r
}

func complexFromPolar(r, theta float64) complex128 {
	return complex(r*math.Cos(theta), r*math.Sin(theta))
}

func countResolvedPeaks(spec, thetas []float64) int {
	peaks := dsp.FindPeaks(spec, dsp.PeakDetectorConfig{
		MinHeight:   dsp.Median(spec) * 4,
		MinDistance: 8,
	})
	n := 0
	for _, p := range peaks {
		if math.Abs(thetas[p.Index]) > 5 {
			n++
		}
	}
	return n
}

func maxOf(x []float64) float64 {
	_, m := dsp.MinMax(x)
	return m
}

// AblationISARAperture (A4) sweeps the emulated-array aperture: the
// angular resolution of ISAR depends on how far the human moves; a
// narrow beam needs ~4 wavelengths (~50 cm) of motion (§1.2).
func AblationISARAperture(o Options) *Report {
	r := &Report{
		ID:    "A4",
		Title: "ISAR angular resolution vs movement length",
		PaperClaim: "angular resolution depends on the amount of movement; " +
			"a narrow beam needs the human to move ~4 wavelengths (~50 cm)",
	}
	base := isar.DefaultConfig()
	s := rng.DeriveSeed(o.Seed, "a4")
	r.addf("%14s %14s %12s", "motion (cm)", "aperture (wl)", "beam (deg)")
	prevWidth := 361.0
	widthAt4wl := 0.0
	for _, moveCm := range []float64{6, 12, 25, 50, 100} {
		move := moveCm / 100
		// Window sized so the target traverses `move` meters during it.
		cfg := base
		cfg.Window = int(move / (cfg.Velocity * cfg.SampleT))
		if cfg.Window < 8 {
			cfg.Window = 8
		}
		cfg.Subarray = cfg.Window / 3
		if cfg.Subarray < 4 {
			cfg.Subarray = 4
		}
		if cfg.MaxSources >= cfg.Subarray {
			cfg.MaxSources = cfg.Subarray - 1
		}
		proc, err := isar.NewProcessor(cfg)
		if err != nil {
			return r.fail(err)
		}
		// Target at broadside-ish angle moving at the assumed speed.
		h := make([]complex128, cfg.Window)
		for i := range h {
			phase := 2 * math.Pi * 2 * 0.5 * cfg.SampleT * float64(i) / cfg.Lambda
			h[i] = complexFromPolar(1, phase) + s.ComplexGaussian(1e-4)
		}
		spec, err := proc.BeamformSpectrum(h)
		if err != nil {
			return r.fail(err)
		}
		width := halfPowerWidthDeg(spec, proc.Thetas())
		apertureWl := 2 * move / cfg.Lambda // round-trip aperture in wavelengths
		r.addf("%14.0f %14.1f %12.1f", moveCm, apertureWl, width)
		if width > prevWidth+2 {
			r.Pass = false
		}
		prevWidth = width
		if moveCm == 50 {
			widthAt4wl = width
		}
	}
	// Shape: beamwidth shrinks with aperture and reaches a "narrow"
	// (< 15 degree) beam by ~50 cm of motion.
	r.Pass = widthAt4wl > 0 && widthAt4wl < 15 && prevWidth <= widthAt4wl+1
	return r
}

// halfPowerWidthDeg measures the -3 dB width around the spectrum's peak.
func halfPowerWidthDeg(spec, thetas []float64) float64 {
	pi := dsp.Argmax(spec)
	if pi < 0 {
		return 361
	}
	half := spec[pi] / 2
	lo, hi := pi, pi
	for lo > 0 && spec[lo] > half {
		lo--
	}
	for hi < len(spec)-1 && spec[hi] > half {
		hi++
	}
	return thetas[hi] - thetas[lo]
}
