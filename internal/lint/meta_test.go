// Package lint's meta-test audits the annotation inventory itself: every
// //wivi:hotpath marker must sit in the doc comment of a function that
// still exists (a marker orphaned by a rename silently stops checking
// anything), and the kernels the perf contract names must actually carry
// the marker — deleting an annotation from the required surface is a test
// failure, not a silent coverage loss.
package lint

import (
	"go/ast"
	"sort"
	"strings"
	"testing"

	"wivi/internal/lint/annot"
	"wivi/internal/lint/load"
)

// requiredHotpath is the per-frame kernel surface that must stay under
// hotpathalloc checking: the frame kernel with its Hankel covariance,
// the subspace eigensolver, the spectrum kernels, the FFT kernels, the
// Into/Append primitives they call, and capture synthesis (the
// per-sample channel kernel, its per-block loop, its phasor and the
// antenna pattern it evaluates for every path). Grown deliberately,
// never pruned casually — removing a name here means arguing the
// function left the hot path.
var requiredHotpath = map[string][]string{
	"wivi/internal/isar": {
		"processFrame", "smoothedCorrelationInto", "estimateSignalDim",
		"musicSpectrumComplementInto", "bartlettSpectrumInto",
		"quadFormInto",
	},
	"wivi/internal/cmath": {
		"Eigenvalues", "LeadingEigenvectors", "tridiagonalize",
		"tridiagEigenvalues", "inverseIteration", "normalize",
		"factorShifted", "solveShifted", "backTransform",
		"forceHermitian", "jacobiRotate",
		"MulVecInto", "AddOuter", "Dot",
	},
	"wivi/internal/dsp": {
		"FFTInto", "fftInPlace", "radix2", "bluestein",
		"PowerSpectrumInto", "MedianBuf", "PercentileBuf",
	},
	"wivi/internal/ofdm": {
		"AverageSubcarriersAppend",
	},
	"wivi/internal/sim": {
		"movingChannelsInto", "synthBlock", "phasor",
	},
	"wivi/internal/rf": {
		"GainDBAlong",
	},
}

func TestHotpathAnnotationsNameLiveFunctions(t *testing.T) {
	units, err := load.Packages("../..")
	if err != nil {
		t.Fatal(err)
	}
	annotated := map[string]map[string]bool{} // import path -> annotated funcs
	for _, u := range units {
		pkgPath, _, _ := strings.Cut(u.Pkg.ImportPath, " ")
		for _, f := range u.Files {
			ix := annot.NewIndex(u.Fset, f, annot.Hotpath)
			total := len(ix.All())
			inDocs := 0
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !annot.FuncHas(fd, annot.Hotpath) {
					continue
				}
				inDocs++
				if annotated[pkgPath] == nil {
					annotated[pkgPath] = map[string]bool{}
				}
				annotated[pkgPath][fd.Name.Name] = true
			}
			if total != inDocs {
				t.Errorf("%s: %d //wivi:hotpath marker(s) not attached to a function doc comment (orphaned by a rename or misplaced?)",
					u.Fset.Position(f.Pos()).Filename, total-inDocs)
			}
		}
	}

	var pkgs []string
	for pkg := range requiredHotpath {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		for _, fn := range requiredHotpath[pkg] {
			if !annotated[pkg][fn] {
				t.Errorf("%s.%s: required hot-path kernel is missing its //wivi:hotpath annotation", pkg, fn)
			}
		}
	}
}
