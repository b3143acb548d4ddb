package eval

import (
	"fmt"

	"wivi/internal/dsp"
	"wivi/internal/gesture"
	"wivi/internal/motion"
	"wivi/internal/rf"
)

// fourGestureMessage is the Fig. 6-1 sequence: step forward, step
// backward (bit '0'), step backward, step forward (bit '1').
var fourGestureMessage = []motion.Bit{motion.Bit0, motion.Bit1}

// Fig61 regenerates Fig. 6-1/6-2: the gesture sequence appears as
// triangles above/below the zero line, and a slanted subject produces
// the same shape with smaller |theta|.
func Fig61(o Options) *Report {
	r := &Report{
		ID:    "F6.1",
		Title: "Gestures in the angle-time image (and the Fig. 6-2 slant effect)",
		PaperClaim: "forward steps appear above the zero line, backward steps " +
			"below; slanted subjects produce smaller |theta| with the same shape",
	}
	out, err := gestureTrial(seedFor(o, "fig61", 0), rf.HollowWall, 4, fourGestureMessage, 0)
	if err != nil {
		return r.fail(err)
	}
	series := gesture.AngleEnergySeries(out.img, 8)
	var pos, neg float64
	for _, v := range series {
		if v > pos {
			pos = v
		}
		if v < neg {
			neg = v
		}
	}
	r.addf("angle-energy series peak above zero %.3g, below zero %.3g", pos, neg)
	r.Lines = append(r.Lines, RenderHeatmap(out.img, 64, 15)...)

	// Slant (Fig. 6-2(c)): the same subject stepping 50 degrees off the
	// device line must produce smaller angles but the same decodable
	// shape. Same seed => same subject parameters and scene.
	straightTyp := typicalDominantAngle(out)
	slanted, err := gestureTrial(seedFor(o, "fig61", 0), rf.HollowWall, 4, fourGestureMessage, 50)
	if err != nil {
		return r.fail(err)
	}
	slantTyp := typicalDominantAngle(slanted)
	r.addf("typical |theta| straight %.0f deg vs slanted (50 deg) %.0f deg", straightTyp, slantTyp)
	r.addf("slanted message decoded correctly: %v", slanted.correct())
	r.Pass = pos > 0 && neg < 0 && out.correct() && slanted.correct() && slantTyp <= straightTyp
	return r
}

// typicalDominantAngle returns the median |angle| of the strongest
// non-DC line across frames that have one — robust against occasional
// multipath-ghost lines at extreme angles.
func typicalDominantAngle(out *gestureOutcome) float64 {
	var mags []float64
	for f := 0; f < out.img.NumFrames(); f++ {
		angles := out.img.DominantAngles(f, 1, 8)
		if len(angles) == 0 {
			continue
		}
		a := angles[0]
		if a < 0 {
			a = -a
		}
		mags = append(mags, a)
	}
	return dsp.Median(mags)
}

// Fig63 regenerates Fig. 6-3: matched-filter output and decoded bits for
// the Fig. 6-1 message.
func Fig63(o Options) *Report {
	r := &Report{
		ID:    "F6.3",
		Title: "Gesture decoding: matched filter output and peak detection",
		PaperClaim: "the matched output looks like BPSK; (1,-1) decodes '0', " +
			"(-1,1) decodes '1'; the Fig. 6-1 message decodes to bits 0,1",
	}
	out, err := gestureTrial(seedFor(o, "fig63", 0), rf.HollowWall, 4, fourGestureMessage, 0)
	if err != nil {
		return r.fail(err)
	}
	res := out.result
	r.addf("detected steps: %d, unpaired: %d, erasures: %d",
		len(res.Steps), res.UnpairedSteps, res.Erasures)
	for _, s := range res.Steps {
		r.addf("  step %-8s at t=%.1fs  SNR %.1f dB", s.Dir, s.Time, s.SNRdB)
	}
	bitsStr := ""
	for _, b := range res.Bits {
		bitsStr += fmt.Sprintf("%d", b)
	}
	r.addf("decoded bits: %q (sent %q)", bitsStr, "01")
	r.Pass = out.correct()
	return r
}

// gestureDistanceTrials runs trials per distance and reports accuracy
// plus SNRs per bit value.
type distanceResult struct {
	dist     float64
	correct  int
	trials   int
	flips    int
	snrByBit map[motion.Bit][]float64
	erasures int
}

func runGestureDistances(o Options, distances []float64, trialsPer int, wall rf.Material, label string) ([]*distanceResult, error) {
	var out []*distanceResult
	for _, dist := range distances {
		dr := &distanceResult{dist: dist, trials: trialsPer, snrByBit: map[motion.Bit][]float64{}}
		for trial := 0; trial < trialsPer; trial++ {
			bit := motion.Bit(trial % 2)
			g, err := gestureTrial(seedFor(o, fmt.Sprintf("%s-%.0f", label, dist), trial),
				wall, dist, []motion.Bit{bit}, 0)
			if err != nil {
				return nil, err
			}
			dr.erasures += g.result.Erasures
			if g.correct() {
				dr.correct++
				dr.snrByBit[bit] = append(dr.snrByBit[bit], g.result.BitSNRsDB[0])
			} else if g.flipped() {
				dr.flips++
			}
		}
		out = append(out, dr)
	}
	return out, nil
}

// fig74Trials runs F7.4's gesture trials: 8 per distance at quick scale
// and 16 at full, at 2, 5, 8 and 9 m (quick) or every metre from 1 to
// 9 m. Quick scale needs 8 trials per distance: short-range trials
// occasionally erase on pre-step sway (the amplitude-balance gate trades
// those flips for erasures), and 4-trial accuracies quantize too
// coarsely for the 85% near bound.
func fig74Trials(o Options) ([]*distanceResult, error) {
	distances := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if o.Quick {
		distances = []float64{2, 5, 8, 9}
	}
	return runGestureDistances(o, distances, o.pick(8, 16), rf.HollowWall, "fig74")
}

// Fig74 regenerates Fig. 7-4: gesture decoding accuracy vs distance. The
// shape criteria: high accuracy at short range, graceful degradation, a
// cutoff by ~10 m, and zero bit flips (erasure-only errors).
func Fig74(o Options) *Report {
	r := &Report{
		ID:    "F7.4",
		Title: "Gesture decoding accuracy vs distance (6\" hollow wall)",
		PaperClaim: "100% at <= 5 m, 93.75% at 6-7 m, 75% at 8 m, 0% at 9 m " +
			"(3 dB SNR gate causes a sharp cutoff); errors are erasures, never flips",
	}
	results, err := fig74Trials(o)
	if err != nil {
		return r.fail(err)
	}
	var nearAcc, farAcc float64
	var nearN, farN int
	flips := 0
	for _, dr := range results {
		acc := 100 * float64(dr.correct) / float64(dr.trials)
		r.Lines = append(r.Lines, RenderBar(fmt.Sprintf("%.0f m", dr.dist), acc, 100, 40, "%"))
		flips += dr.flips
		if dr.dist <= 4 {
			nearAcc += acc
			nearN++
		}
		if dr.dist >= 9 {
			farAcc += acc
			farN++
		}
	}
	if nearN > 0 {
		nearAcc /= float64(nearN)
	}
	if farN > 0 {
		farAcc /= float64(farN)
	}
	r.addf("bit flips across all trials: %d (paper: 0)", flips)
	// The far criterion asserts a clear decode falloff, not the paper's
	// 0% at 9 m: that hard edge came from the USRP's transmit-power
	// ceiling, while here the §6.2 gate is relative to the in-series
	// noise estimate and the 9 m subject stands near the back wall,
	// whose bounce path boosts the returns — so the cutoff is softer and
	// lands beyond 9 m (see DESIGN.md §5).
	r.Pass = nearAcc >= 85 && farAcc <= 75 && farAcc < nearAcc-20 && flips == 0
	if farAcc > 0 {
		r.Notes = "cutoff is softer than the paper's hard 9 m edge (the relative SNR " +
			"gate and back-wall bounce keep 9 m partially decodable; the paper's " +
			"edge was set by USRP transmit power)"
	}
	return r
}

// Fig75 regenerates Fig. 7-5: the CDFs of gesture SNR for the two bit
// values; bit '0' must have the higher SNR (forward-first gestures happen
// nearer the device and forward steps are longer).
func Fig75(o Options) *Report {
	r := &Report{
		ID:         "F7.5",
		Title:      "CDF of gesture SNRs by bit value",
		PaperClaim: "bit '0' gestures have higher SNR than bit '1' gestures",
	}
	distances := []float64{2, 4, 6, 8}
	trials := o.pick(4, 12)
	results, err := runGestureDistances(o, distances, trials, rf.HollowWall, "fig75")
	if err != nil {
		return r.fail(err)
	}
	snr := map[motion.Bit][]float64{}
	for _, dr := range results {
		for b, vs := range dr.snrByBit {
			snr[b] = append(snr[b], vs...)
		}
	}
	if len(snr[motion.Bit0]) == 0 || len(snr[motion.Bit1]) == 0 {
		r.addf("insufficient decodes for CDFs (bit0 %d, bit1 %d)",
			len(snr[motion.Bit0]), len(snr[motion.Bit1]))
		r.Pass = false
		return r
	}
	med0 := dsp.Median(snr[motion.Bit0])
	med1 := dsp.Median(snr[motion.Bit1])
	r.Lines = append(r.Lines, RenderCDF("bit '0' SNR (dB)", snr[motion.Bit0], 50, 8)...)
	r.Lines = append(r.Lines, RenderCDF("bit '1' SNR (dB)", snr[motion.Bit1], 50, 8)...)
	r.addf("median SNR: bit '0' %.1f dB vs bit '1' %.1f dB", med0, med1)
	r.Pass = med0 >= med1
	return r
}

// Fig76 regenerates Fig. 7-6: gesture detection accuracy and SNR across
// building materials.
func Fig76(o Options) *Report {
	r := &Report{
		ID:    "F7.6",
		Title: "Gesture detection across building materials (3 m)",
		PaperClaim: "accuracy 100/100/100/100/87.5% for free space, glass, wood " +
			"door, hollow wall, 8\" concrete; SNR decreases with material density",
	}
	trials := o.pick(4, 8)
	type row struct {
		mat  rf.Material
		acc  float64
		snrs []float64
	}
	var rows []row
	for _, mat := range rf.EvaluationMaterials {
		correct := 0
		var snrs []float64
		for trial := 0; trial < trials; trial++ {
			bit := motion.Bit(trial % 2)
			g, err := gestureTrial(seedFor(o, "fig76-"+mat.Name, trial), mat, 3,
				[]motion.Bit{bit}, 0)
			if err != nil {
				return r.fail(err)
			}
			if g.correct() {
				correct++
				snrs = append(snrs, g.result.BitSNRsDB[0])
			}
		}
		rows = append(rows, row{mat: mat, acc: 100 * float64(correct) / float64(trials), snrs: snrs})
	}
	r.addf("%-26s %9s %9s %9s %9s", "material", "accuracy", "SNR avg", "SNR min", "SNR max")
	for _, row := range rows {
		lo, hi := dsp.MinMax(row.snrs)
		r.addf("%-26s %8.1f%% %8.1f %9.1f %9.1f",
			row.mat.Name, row.acc, dsp.Mean(row.snrs), lo, hi)
	}
	// Shape: everything through hollow wall decodes well; concrete is the
	// hardest; SNR ordering follows material density.
	pass := true
	for i, row := range rows {
		if i < len(rows)-1 && row.acc < 75 {
			pass = false
		}
	}
	if rows[len(rows)-1].acc > rows[0].acc {
		pass = false
	}
	if len(rows[0].snrs) > 0 && len(rows[len(rows)-1].snrs) > 0 &&
		dsp.Mean(rows[0].snrs) <= dsp.Mean(rows[len(rows)-1].snrs) {
		pass = false
	}
	r.Pass = pass
	return r
}
