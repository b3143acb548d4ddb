// Package eval regenerates every table and figure of the paper's
// evaluation (§7) plus the ablations called out in DESIGN.md, printing
// the same rows/series the paper reports. Each experiment returns a
// Report with the paper's claim, the measured result, and a shape
// verdict ("who wins, by roughly what factor, where crossovers fall").
package eval

import (
	"context"
	"fmt"
	"strings"

	"wivi/internal/core"
	"wivi/internal/gesture"
	"wivi/internal/isar"
	"wivi/internal/motion"
	"wivi/internal/rf"
	"wivi/internal/rng"
	"wivi/internal/sim"
)

// Options controls experiment scale.
type Options struct {
	// Quick reduces trial counts and trace lengths for CI-friendly runs;
	// the full scale matches the paper's trial counts.
	Quick bool
	// Seed is the base seed; every experiment derives from it.
	Seed int64
}

func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) pickF(quick, full float64) float64 {
	if o.Quick {
		return quick
	}
	return full
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "F7.4").
	ID string
	// Title describes the experiment.
	Title string
	// PaperClaim summarizes what the paper reports.
	PaperClaim string
	// Lines hold the regenerated rows/series, formatted.
	Lines []string
	// Pass reports whether the shape criterion held.
	Pass bool
	// Notes record deviations or caveats.
	Notes string
	// Err records an experiment failure (Pass is false).
	Err error
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "SHAPE OK"
	if !r.Pass {
		verdict = "SHAPE MISMATCH"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, verdict)
	fmt.Fprintf(&b, "   paper: %s\n", r.PaperClaim)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "   %s\n", l)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "   error: %v\n", r.Err)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "   note: %s\n", r.Notes)
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) fail(err error) *Report {
	r.Pass = false
	r.Err = err
	return r
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	// ID is the DESIGN.md identifier (e.g. "F7.4").
	ID string
	// Run executes the experiment.
	Run func(Options) *Report
}

// Experiments lists every experiment in DESIGN.md order.
func Experiments() []Experiment {
	return []Experiment{
		{"T4.1", Table41},
		{"L4.1", Lemma411},
		{"F5.2", Fig52},
		{"F5.3", Fig53},
		{"F6.1", Fig61},
		{"F6.3", Fig63},
		{"F7.2", Fig72},
		{"F7.3", Fig73},
		{"T7.1", Table71},
		{"F7.4", Fig74},
		{"F7.5", Fig75},
		{"F7.6", Fig76},
		{"F7.7", Fig77},
		{"A1", AblationNulling},
		{"A2", AblationUWBBandwidth},
		{"A3", AblationSmoothing},
		{"A4", AblationISARAperture},
	}
}

// seedFor derives a deterministic experiment seed.
func seedFor(o Options, label string, trial int) int64 {
	s := rng.DeriveSeed(o.Seed, label)
	v := int64(trial + 1)
	return v*1_000_003 ^ int64(s.Intn(1<<30))
}

// trackingTrial builds a scene with walkers, runs the full pipeline and
// returns the core device, the simulated front end, and the image.
func trackingTrial(seed int64, scfg sim.SceneConfig, walkers int, duration float64) (*core.Device, *sim.Device, *isar.Image, *core.Trace, error) {
	scfg.Seed = seed
	sc := sim.NewScene(scfg)
	for i := 0; i < walkers; i++ {
		if _, err := sc.AddWalker(duration + 2); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	dev, err := core.New(fe, core.DefaultConfig(fe))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	img, tr, err := dev.Track(0, duration)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return dev, fe, img, tr, nil
}

// gestureOutcome is one gesture trial's result.
type gestureOutcome struct {
	sent   []motion.Bit
	result *gesture.Result
	img    *isar.Image
}

// correct reports whether the decoded bits match the sent bits exactly.
func (g *gestureOutcome) correct() bool {
	if len(g.result.Bits) != len(g.sent) {
		return false
	}
	for i := range g.sent {
		if g.result.Bits[i] != g.sent[i] {
			return false
		}
	}
	return true
}

// flipped reports whether any decoded bit contradicts the sent sequence
// (the paper claims this never happens, §7.5).
func (g *gestureOutcome) flipped() bool {
	for i, b := range g.result.Bits {
		if i < len(g.sent) && b != g.sent[i] {
			return true
		}
	}
	return false
}

// gestureTrial runs one gesture transmission and decodes it.
func gestureTrial(seed int64, wall rf.Material, dist float64, bits []motion.Bit, slantDeg float64) (*gestureOutcome, error) {
	sc := sim.NewScene(sim.SceneConfig{
		Seed:      seed,
		Wall:      wall,
		RoomWidth: 11,
		RoomDepth: 11, // the larger conference room accommodates 9 m trials (§7.5)
	})
	params := motion.RandomizeGestureParams(rng.DeriveSeed(seed, "subject"))
	const leadIn = 1.5
	if _, err := sc.AddGestureSubject(dist, bits, params, slantDeg, leadIn); err != nil {
		return nil, err
	}
	duration := motion.MessageDuration(len(bits), params, leadIn) + 1
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	dev, err := core.New(fe, core.DefaultConfig(fe))
	if err != nil {
		return nil, err
	}
	obs, err := dev.Observe(context.Background(), core.TrackRequest{Mode: core.ModeGesture, Duration: duration})
	if err != nil {
		return nil, err
	}
	return &gestureOutcome{sent: bits, result: obs.Gestures, img: obs.Image}, nil
}
