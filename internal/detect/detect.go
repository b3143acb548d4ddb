// Package detect implements Wi-Vi's automatic detection of the number of
// moving humans in a closed room (§5.2, §7.4): the spatial variance of
// the smoothed-MUSIC angle-time image is computed per frame (Eq. 5.4 and
// 5.5), averaged over the capture, and classified against thresholds
// learned from a training set.
package detect

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"wivi/internal/dsp"
	"wivi/internal/isar"
)

// NoiseRef estimates the image's noise power reference from its quietest
// moments: the Bartlett spectrum values of the lowest-motion-power decile
// of frames (walkers pause; an empty room is all pauses). The dB weights
// of Eq. 5.4/5.5 are taken relative to it. A trace-wide percentile would
// instead rise with the number of movers and erase the count separation.
func NoiseRef(img *isar.Image) float64 {
	if len(img.Bartlett) == 0 {
		return 1e-300
	}
	cut := dsp.Percentile(img.MotionPower, 10)
	var quiet []float64
	for f, frame := range img.Bartlett {
		if img.MotionPower[f] <= cut {
			quiet = append(quiet, frame...)
		}
	}
	if len(quiet) == 0 {
		quiet = img.Bartlett[0]
	}
	ref := dsp.Percentile(quiet, 25)
	if ref <= 0 {
		ref = 1e-300
	}
	return ref
}

// frameWeights returns the angular weights of Eq. 5.4/5.5 for one frame:
// 10 log10 of the power-bearing Bartlett spectrum over the trace's noise
// reference, clamped at zero. Power-bearing weights are essential: the
// MUSIC pseudospectrum is scale-free per frame, so a variance computed
// from it alone cannot tell one mover from three (their peak heights are
// similar); the Bartlett spectrum grows with every additional mover's
// reflected power. Images without a Bartlett layer (hand-built test
// fixtures) fall back to median-subtracted pseudospectrum dB.
func frameWeights(img *isar.Image, frame int, ref float64) []float64 {
	if len(img.Bartlett) > frame && img.Bartlett[frame] != nil {
		b := img.Bartlett[frame]
		w := make([]float64, len(b))
		for i, v := range b {
			if v > ref {
				w[i] = 10 * math.Log10(v/ref)
			}
		}
		return w
	}
	db := img.PowerDB(frame)
	med := dsp.Median(db)
	w := make([]float64, len(db))
	for i, v := range db {
		if v > med {
			w[i] = v - med
		}
	}
	return w
}

// SpatialCentroid computes Eq. 5.4 for one frame:
//
//	C[n] = sum_theta theta * w[theta, n]
//
// with w the dB spectrum weights (see frameWeights), normalized by the
// total weight so it is a proper centroid in degrees.
func SpatialCentroid(img *isar.Image, frame int) float64 {
	return spatialCentroidRef(img, frame, NoiseRef(img))
}

func spatialCentroidRef(img *isar.Image, frame int, ref float64) float64 {
	w := frameWeights(img, frame, ref)
	var num, den float64
	for i, th := range img.ThetaDeg {
		num += th * w[i]
		den += w[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// SpatialVariance computes Eq. 5.5 for one frame:
//
//	VAR[n] = sum_theta theta^2 * w[theta, n]  -  C[n]^2
//
// with the centroid taken from SpatialCentroid and the same weights. At
// any point in time, the larger the number of moving humans, the more
// angles carry energy and the higher the variance (§5.2).
func SpatialVariance(img *isar.Image, frame int) float64 {
	return spatialVarianceRef(img, frame, NoiseRef(img))
}

func spatialVarianceRef(img *isar.Image, frame int, ref float64) float64 {
	w := frameWeights(img, frame, ref)
	c := spatialCentroidRef(img, frame, ref)
	var sum float64
	for i, th := range img.ThetaDeg {
		d := th - c
		sum += d * d * w[i]
	}
	return sum
}

// MeanSpatialVariance averages the per-frame spatial variance over the
// whole capture; this is the single number used to classify a trial
// (§5.2: "This variance is then averaged over the duration of the
// experiment").
func MeanSpatialVariance(img *isar.Image) float64 {
	n := img.NumFrames()
	if n == 0 {
		return 0
	}
	ref := NoiseRef(img)
	var s float64
	for f := 0; f < n; f++ {
		s += spatialVarianceRef(img, f, ref)
	}
	return s / float64(n)
}

// LineSpreadVariance is the counting statistic actually used by the
// classifier: the spatial variance of the frame's resolved angle lines,
// scaled by the frame's motion power in dB above the receiver noise
// floor:
//
//	V[n] = 10 log10(1 + mp[n]/noise) * sum_lines (theta_i - C)^2
//
// where the lines are the frame's dominant non-DC angles and C their
// centroid. It follows §5.2's reasoning — at any point in time, more
// humans spread energy over more angles — but anchors the energy scale
// to the absolute noise floor. The literal Eq. 5.4/5.5 statistic
// (SpatialVariance above) is kept for reporting; on this simulator its
// self-referenced normalization does not separate counts (see DESIGN.md).
func LineSpreadVariance(img *isar.Image, frame int, noiseFloor, guardDeg float64) float64 {
	if noiseFloor <= 0 {
		noiseFloor = 1e-300
	}
	lines := img.DominantAngles(frame, 4, guardDeg)
	if len(lines) == 0 {
		return 0
	}
	var c float64
	for _, th := range lines {
		c += th
	}
	c /= float64(len(lines))
	var spread float64
	for _, th := range lines {
		d := th - c
		spread += d * d
	}
	// Include the DC line at zero degrees as one anchor of the spread
	// (the paper's images always contain it).
	spread += c * c
	w := 10 * math.Log10(1+img.MotionPower[frame]/noiseFloor)
	return w * spread
}

// MeanLineVariance averages LineSpreadVariance over all frames: the
// trial-level counting statistic.
func MeanLineVariance(img *isar.Image, noiseFloor, guardDeg float64) float64 {
	n := img.NumFrames()
	if n == 0 {
		return 0
	}
	var s float64
	for f := 0; f < n; f++ {
		s += LineSpreadVariance(img, f, noiseFloor, guardDeg)
	}
	return s / float64(n)
}

// Classifier separates trial-level spatial variances into a human count
// by learned thresholds: Thresholds[i] separates count Base+i from count
// Base+i+1. Counts outside the trained range are never predicted.
type Classifier struct {
	// Base is the smallest class label seen in training.
	Base int
	// Thresholds are ascending decision boundaries.
	Thresholds []float64
}

// ErrNeedTwoClasses is returned when training data covers fewer than two
// distinct counts.
var ErrNeedTwoClasses = errors.New("detect: training needs at least two classes")

// Train learns thresholds from labeled samples: samples[k] holds the
// spatial variances observed with k moving humans. Thresholds are placed
// at the midpoint between the adjacent classes' distribution edges
// (midpoint of the maximum of class k and the minimum of class k+1 when
// separable; midpoint of the means otherwise). Missing intermediate
// classes are interpolated.
func Train(samples map[int][]float64) (*Classifier, error) {
	if len(samples) < 2 {
		return nil, ErrNeedTwoClasses
	}
	counts := make([]int, 0, len(samples))
	for k, v := range samples {
		if k < 0 {
			return nil, fmt.Errorf("detect: negative class label %d", k)
		}
		if len(v) == 0 {
			return nil, fmt.Errorf("detect: class %d has no samples", k)
		}
		counts = append(counts, k)
	}
	sort.Ints(counts)
	minCount := counts[0]
	maxCount := counts[len(counts)-1]

	// Class statistics for present classes (indexed by label - minCount).
	type stat struct {
		present  bool
		min, max float64
		mean     float64
	}
	span := maxCount - minCount + 1
	stats := make([]stat, span)
	for _, k := range counts {
		v := samples[k]
		mn, mx := dsp.MinMax(v)
		stats[k-minCount] = stat{present: true, min: mn, max: mx, mean: dsp.Mean(v)}
	}
	// Interpolate means for missing intermediate classes.
	means := make([]float64, span)
	for k := 0; k < span; k++ {
		if stats[k].present {
			means[k] = stats[k].mean
			continue
		}
		lo, hi := k-1, k+1
		for lo >= 0 && !stats[lo].present {
			lo--
		}
		for hi < span && !stats[hi].present {
			hi++
		}
		if lo < 0 || hi >= span {
			return nil, fmt.Errorf("detect: cannot interpolate class %d", k+minCount)
		}
		frac := float64(k-lo) / float64(hi-lo)
		means[k] = stats[lo].mean*(1-frac) + stats[hi].mean*frac
	}
	c := &Classifier{Base: minCount, Thresholds: make([]float64, span-1)}
	for k := 0; k < span-1; k++ {
		var th float64
		if stats[k].present && stats[k+1].present && stats[k].max < stats[k+1].min {
			// Separable: split the margin.
			th = (stats[k].max + stats[k+1].min) / 2
		} else {
			th = (means[k] + means[k+1]) / 2
		}
		c.Thresholds[k] = th
	}
	// Enforce monotonicity.
	for k := 1; k < len(c.Thresholds); k++ {
		if c.Thresholds[k] < c.Thresholds[k-1] {
			c.Thresholds[k] = c.Thresholds[k-1]
		}
	}
	return c, nil
}

// Classify maps one trial-level spatial variance to a human count.
func (c *Classifier) Classify(variance float64) int {
	n := c.Base
	for _, th := range c.Thresholds {
		if variance > th {
			n++
		}
	}
	return n
}

// ConfusionMatrix accumulates classification outcomes: Counts[actual][detected].
type ConfusionMatrix struct {
	// Counts[i][j] is the number of trials with i actual humans detected
	// as j humans.
	Counts [][]int
	// Classes is the number of classes (rows/cols).
	Classes int
}

// NewConfusionMatrix creates an n-class confusion matrix.
func NewConfusionMatrix(n int) *ConfusionMatrix {
	m := &ConfusionMatrix{Classes: n, Counts: make([][]int, n)}
	for i := range m.Counts {
		m.Counts[i] = make([]int, n)
	}
	return m
}

// Add records one trial.
func (m *ConfusionMatrix) Add(actual, detected int) {
	if actual < 0 || actual >= m.Classes {
		return
	}
	if detected < 0 {
		detected = 0
	}
	if detected >= m.Classes {
		detected = m.Classes - 1
	}
	m.Counts[actual][detected]++
}

// RowPercent returns row i as percentages (the format of Table 7.1).
func (m *ConfusionMatrix) RowPercent(i int) []float64 {
	total := 0
	for _, c := range m.Counts[i] {
		total += c
	}
	out := make([]float64, m.Classes)
	if total == 0 {
		return out
	}
	for j, c := range m.Counts[i] {
		out[j] = 100 * float64(c) / float64(total)
	}
	return out
}

// Diagonal returns the per-class accuracy percentages (the diagonal of
// Table 7.1: 100%, 100%, 85%, 90% in the paper).
func (m *ConfusionMatrix) Diagonal() []float64 {
	out := make([]float64, m.Classes)
	for i := 0; i < m.Classes; i++ {
		out[i] = m.RowPercent(i)[i]
	}
	return out
}

// OffByMoreThanOne returns the number of trials misclassified by two or
// more humans (the paper's Table 7.1 has none: 2 humans are only ever
// confused with 3, never with 0 or 1).
func (m *ConfusionMatrix) OffByMoreThanOne() int {
	n := 0
	for i := range m.Counts {
		for j, c := range m.Counts[i] {
			if j > i+1 || j < i-1 {
				n += c
			}
		}
	}
	return n
}
