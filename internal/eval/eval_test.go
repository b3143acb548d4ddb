package eval

import (
	"strings"
	"testing"

	"wivi/internal/isar"
)

var quick = Options{Quick: true, Seed: 42}

func checkReport(t *testing.T, r *Report) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s failed: %v", r.ID, r.Err)
	}
	if !r.Pass {
		t.Fatalf("%s shape mismatch:\n%s", r.ID, r)
	}
	if r.ID == "" || r.Title == "" || r.PaperClaim == "" {
		t.Fatalf("%s report incomplete", r.ID)
	}
	if len(r.Lines) == 0 {
		t.Fatalf("%s has no output lines", r.ID)
	}
}

func TestTable41(t *testing.T)  { checkReport(t, Table41(quick)) }
func TestLemma411(t *testing.T) { checkReport(t, Lemma411(quick)) }

func TestFig52(t *testing.T) { checkReport(t, Fig52(quick)) }
func TestFig53(t *testing.T) { checkReport(t, Fig53(quick)) }
func TestFig61(t *testing.T) { checkReport(t, Fig61(quick)) }
func TestFig63(t *testing.T) { checkReport(t, Fig63(quick)) }

func TestFig77(t *testing.T) { checkReport(t, Fig77(quick)) }

func TestAblationUWB(t *testing.T)       { checkReport(t, AblationUWBBandwidth(quick)) }
func TestAblationSmoothing(t *testing.T) { checkReport(t, AblationSmoothing(quick)) }
func TestAblationAperture(t *testing.T)  { checkReport(t, AblationISARAperture(quick)) }
func TestAblationNulling(t *testing.T)   { checkReport(t, AblationNulling(quick)) }

// The heavier statistical experiments run at reduced scale here and at
// full scale in cmd/wivi-bench.
func TestFig73Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	checkReport(t, Fig73(quick))
}

func TestTable71Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	checkReport(t, Table71(quick))
}

// TestFig74Quick checks F7.4's trials, not its report: one result per
// quick distance, each with its 8 trials, and no bit flips in any of
// them, since the decoder's errors must be erasures. The shape verdict
// is left to the full-scale eval: 8 trials per distance are too few for
// its accuracy bounds at every seed.
func TestFig74Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	results, err := fig74Trials(quick)
	if err != nil {
		t.Fatalf("F7.4 failed: %v", err)
	}
	want := []float64{2, 5, 8, 9}
	if len(results) != len(want) {
		t.Fatalf("F7.4 has %d distance results, want %d", len(results), len(want))
	}
	for i, dr := range results {
		if dr.dist != want[i] || dr.trials != 8 {
			t.Errorf("result %d: %d trials at %v m, want 8 at %v m", i, dr.trials, dr.dist, want[i])
		}
		if dr.flips != 0 {
			t.Errorf("%v m: %d bit flips in %d trials, want 0 (errors must be erasures)", dr.dist, dr.flips, dr.trials)
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "X", Title: "t", PaperClaim: "c", Pass: true}
	r.addf("line %d", 1)
	s := r.String()
	for _, want := range []string{"X", "SHAPE OK", "line 1", "paper: c"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string missing %q:\n%s", want, s)
		}
	}
	r.Pass = false
	if !strings.Contains(r.String(), "SHAPE MISMATCH") {
		t.Fatal("fail verdict missing")
	}
}

func TestRenderHeatmap(t *testing.T) {
	img := &isar.Image{
		ThetaDeg:    []float64{-90, 0, 90},
		Power:       [][]float64{{1, 100, 1}, {1, 1, 100}},
		Times:       []float64{0, 1},
		MotionPower: []float64{1, 1},
		SignalDim:   []int{1, 1},
	}
	rows := RenderHeatmap(img, 10, 5)
	if len(rows) != 6 { // 5 rows + time axis
		t.Fatalf("heatmap rows = %d", len(rows))
	}
	if RenderHeatmap(&isar.Image{}, 10, 5) != nil {
		t.Fatal("empty image should render nil")
	}
}

// TestRenderCDF checks the plot's header and where its top row, the
// maximum's, puts the point. The second range is one where
// (w−1)·(hi−lo)/(hi−lo) rounds to 48.99999999999999 at width 50, and
// equal samples print their own maximum, not the widened range.
func TestRenderCDF(t *testing.T) {
	for _, c := range []struct {
		samples []float64
		width   int
		header  string
		col     int
	}{
		{[]float64{1, 2, 3, 4, 5}, 20, "x (n=5, min=1, median=3, max=5)", 19},
		{[]float64{15.297939608765478, 11.80799059133742}, 50, "x (n=2, min=11.8, median=11.8, max=15.3)", 49},
		{[]float64{0, 0, 0}, 50, "x (n=3, min=0, median=0, max=0)", 0},
	} {
		rows := RenderCDF("x", c.samples, c.width, 5)
		if len(rows) != 6 {
			t.Fatalf("%v: cdf rows = %d", c.samples, len(rows))
		}
		if rows[0] != c.header {
			t.Errorf("%v: header %q, want %q", c.samples, rows[0], c.header)
		}
		if col := strings.IndexByte(rows[1], '*') - len("1.00 |"); col != c.col {
			t.Errorf("%v: top point in column %d, want %d (%q)", c.samples, col, c.col, rows[1])
		}
	}
	if RenderCDF("x", nil, 20, 5) != nil {
		t.Fatal("empty cdf should render nil")
	}
}

func TestRenderBar(t *testing.T) {
	s := RenderBar("label", 50, 100, 10, "%")
	if !strings.Contains(s, "#####") || strings.Contains(s, "######") {
		t.Fatalf("bar fill wrong: %q", s)
	}
	// Clamping.
	s = RenderBar("label", 500, 100, 10, "%")
	if !strings.Contains(s, "##########") {
		t.Fatalf("over-max bar: %q", s)
	}
}
