package eval

import (
	"fmt"
	"math"
	"strings"

	"wivi/internal/dsp"
	"wivi/internal/isar"
)

// heatmapRamp maps normalized intensity to ASCII shade.
const heatmapRamp = " .:-=+*#%@"

// RenderHeatmap draws an angle-time image as ASCII art (angle on the
// y axis from +90 at the top to -90 at the bottom, time on the x axis),
// the terminal equivalent of Figs. 5-2/5-3/7-2. This is the canonical
// renderer: the public wivi package's TrackingResult.Heatmap re-exports
// it (render.go at the repo root is a thin delegate), so heatmap changes
// are made here once and every consumer — library, evaluation harness,
// wivi-bench — picks them up.
func RenderHeatmap(img *isar.Image, width, height int) []string {
	if img.NumFrames() == 0 || width < 2 || height < 2 {
		return nil
	}
	frames := img.NumFrames()
	nTheta := len(img.ThetaDeg)
	// Gather dB values for normalization.
	var min, max float64 = math.Inf(1), math.Inf(-1)
	dbs := make([][]float64, frames)
	for f := 0; f < frames; f++ {
		dbs[f] = img.PowerDB(f)
		for _, v := range dbs[f] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if max <= min {
		max = min + 1
	}
	rows := make([]string, 0, height+2)
	var sb strings.Builder
	for r := 0; r < height; r++ {
		sb.Reset()
		// Map row to theta index: top row = +90 degrees.
		ti := (height - 1 - r) * (nTheta - 1) / (height - 1)
		label := img.ThetaDeg[ti]
		for c := 0; c < width; c++ {
			f := c * (frames - 1) / (width - 1)
			v := (dbs[f][ti] - min) / (max - min)
			idx := int(v * float64(len(heatmapRamp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatmapRamp) {
				idx = len(heatmapRamp) - 1
			}
			sb.WriteByte(heatmapRamp[idx])
		}
		rows = append(rows, fmt.Sprintf("%+4.0f° |%s|", label, sb.String()))
	}
	t0 := img.Times[0]
	t1 := img.Times[frames-1]
	rows = append(rows, fmt.Sprintf("      %-*s%*.1fs", width/2, fmt.Sprintf("%.1fs", t0), width-width/2, t1))
	return rows
}

// RenderSpectrumLine draws one angular spectrum (in dB, ascending theta)
// as a single ASCII line of width cells, -90° on the left and +90° on
// the right — the live-streaming form of RenderHeatmap, where time flows
// down the terminal one frame per line instead of across it. Intensity
// is normalized against the fixed [0, maxDB] range so consecutive lines
// are comparable as they accrue.
func RenderSpectrumLine(db []float64, width int, maxDB float64) string {
	if len(db) == 0 || width < 1 {
		return ""
	}
	if maxDB <= 0 {
		maxDB = 1
	}
	var sb strings.Builder
	for c := 0; c < width; c++ {
		ti := c * (len(db) - 1) / max(width-1, 1)
		v := db[ti] / maxDB
		idx := int(v * float64(len(heatmapRamp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(heatmapRamp) {
			idx = len(heatmapRamp) - 1
		}
		sb.WriteByte(heatmapRamp[idx])
	}
	return sb.String()
}

// LiveAxisHeader returns the angle-axis header line for live frame
// rendering, aligned with LiveFrameLine's geometry: the frame line is a
// 7-rune time stamp, '|', width spectrum cells, '|'; the header places
// "-90°" over the first cells, "0°" centered on the middle cell and
// "+90°" ending over the last cell.
func LiveAxisHeader(width int) string {
	row := make([]rune, 8+width+1)
	for i := range row {
		row[i] = ' '
	}
	place := func(label string, at int) {
		rs := []rune(label)
		if at < 0 {
			at = 0
		}
		if at+len(rs) > len(row) {
			at = len(row) - len(rs)
		}
		copy(row[at:], rs)
	}
	place("-90°", 8)
	place("0°", 8+width/2-1)
	place("+90°", 8+width-4)
	return string(row)
}

// LiveFrameLine renders one streamed frame — its center time and
// pseudospectrum — as a live heatmap line: the dB conversion of
// Image.PowerDB applied to a single frame, drawn by RenderSpectrumLine
// against the fixed 40 dB range both live CLIs share.
func LiveFrameLine(timeSec float64, power []float64, width int) string {
	db := make([]float64, len(power))
	for i, v := range power {
		if v < 1 {
			v = 1
		}
		db[i] = 20 * math.Log10(v)
	}
	return fmt.Sprintf("%5.1fs |%s|", timeSec, RenderSpectrumLine(db, width, 40))
}

// RenderCDF draws an empirical CDF as an ASCII step plot. The maximum
// sample takes the last column, unless every sample is equal, when they
// all take the first.
func RenderCDF(name string, samples []float64, width, height int) []string {
	if len(samples) == 0 || width < 2 || height < 2 {
		return nil
	}
	cdf := dsp.NewCDF(samples)
	xs, ps := cdf.Points()
	lo, top := xs[0], xs[len(xs)-1]
	hi := top
	if hi <= lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i, x := range xs {
		// (w−1)·(x−lo)/(hi−lo) can round to just under w−1 at x = hi.
		c := width - 1
		if x < hi {
			c = int(float64(width-1) * (x - lo) / (hi - lo))
		}
		r := height - 1 - int(float64(height-1)*ps[i])
		if c >= 0 && c < width && r >= 0 && r < height {
			grid[r][c] = '*'
		}
	}
	rows := []string{fmt.Sprintf("%s (n=%d, min=%.3g, median=%.3g, max=%.3g)", name, len(samples), lo, cdf.Median(), top)}
	for r, line := range grid {
		frac := float64(height-1-r) / float64(height-1)
		rows = append(rows, fmt.Sprintf("%4.2f |%s|", frac, string(line)))
	}
	return rows
}

// RenderBar renders a labeled horizontal bar (for accuracy/SNR charts).
func RenderBar(label string, value, max float64, width int, unit string) string {
	if max <= 0 {
		max = 1
	}
	n := int(value / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return fmt.Sprintf("%-22s |%-*s| %.1f%s", label, width, strings.Repeat("#", n), value, unit)
}

// summarize renders distribution statistics on one line.
func summarize(name string, samples []float64) string {
	if len(samples) == 0 {
		return name + ": (no samples)"
	}
	lo, hi := dsp.MinMax(samples)
	return fmt.Sprintf("%s: n=%d min=%.3g p25=%.3g median=%.3g p75=%.3g max=%.3g",
		name, len(samples), lo, dsp.Percentile(samples, 25), dsp.Median(samples),
		dsp.Percentile(samples, 75), hi)
}
