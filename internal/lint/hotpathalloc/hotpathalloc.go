// Package hotpathalloc enforces the steady-state allocation budget on the
// per-frame kernel path. The repo's perf contract (DESIGN.md §7, the
// TestStreamerSteadyStateAllocs / TestPacedStreamSteadyStateAllocs gates)
// says the frame kernels allocate during warm-up and then run
// allocation-free; this analyzer turns that from a counted aggregate into a
// per-function, per-site check.
//
// A function opts in by carrying //wivi:hotpath in its doc comment. Inside
// an annotated function the analyzer flags, syntactically:
//
//   - make(...) and new(...) calls;
//   - escaping composite literals: &T{...}, slice literals []T{...} and map
//     literals (plain struct *values* T{...} and fixed-size array values
//     stay on the stack and are allowed);
//   - func literals (closure allocation + capture);
//   - append whose destination does not root in a parameter or the
//     receiver — growing a caller-owned buffer is the Append-form contract,
//     growing anything else is a hidden per-frame allocation;
//   - calls to same-package functions that themselves allocate (by the same
//     syntactic criteria) and are not //wivi:hotpath-annotated. The check
//     is one level deep and name-based by design: each package annotates
//     its own primitives, so the transitive chain is covered by induction
//     once every hot kernel in the package is annotated.
//
// Cross-package calls are not classified (no type information); the
// annotated surface in each package covers its own callees.
//
// A sanctioned allocation — lazy warm-up growth, a result header allocated
// once per output — carries //wivi:alloc <reason> on its line or the line
// above. An annotation without a reason is reported, not honored.
package hotpathalloc

import (
	"go/ast"
	"strings"

	"wivi/internal/lint/analysis"
	"wivi/internal/lint/annot"
)

// Analyzer is the hotpathalloc instance.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap allocation inside //wivi:hotpath functions (escape: //wivi:alloc <reason>)",
	Run:  run,
}

// builtins that may appear as plain call idents without being package
// functions. append/make/new are handled specially before this set is
// consulted.
var builtinCalls = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"panic": true, "print": true, "println": true, "min": true, "max": true,
	"real": true, "imag": true, "complex": true, "recover": true,
	"append": true, "make": true, "new": true,
}

type fnInfo struct {
	decl      *ast.FuncDecl
	ix        *annot.Index // Alloc waiver index for the declaring file
	annotated bool
	allocates bool
}

func run(pass *analysis.Pass) (any, error) {
	var fns []*fnInfo
	byName := map[string][]*fnInfo{}   // plain function name -> decls
	byMethod := map[string][]*fnInfo{} // method name -> decls
	importNames := map[*ast.File]map[string]bool{}

	for _, file := range pass.Files {
		ix := annot.NewIndex(pass.Fset, file, annot.Alloc)
		imps := map[string]bool{}
		for _, imp := range file.Imports {
			switch {
			case imp.Name != nil && imp.Name.Name != "_" && imp.Name.Name != ".":
				imps[imp.Name.Name] = true
			case imp.Name == nil:
				p := strings.Trim(imp.Path.Value, `"`)
				if i := strings.LastIndexByte(p, '/'); i >= 0 {
					p = p[i+1:]
				}
				imps[p] = true
			}
		}
		importNames[file] = imps
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := &fnInfo{decl: fd, ix: ix, annotated: annot.FuncHas(fd, annot.Hotpath)}
			fns = append(fns, fi)
			if fd.Recv != nil {
				byMethod[fd.Name.Name] = append(byMethod[fd.Name.Name], fi)
			} else {
				byName[fd.Name.Name] = append(byName[fd.Name.Name], fi)
			}
		}
	}

	// Pass 1: classify which functions contain an unwaived direct
	// allocation, so annotated functions can be checked against calls to
	// allocating, non-annotated siblings.
	for _, fi := range fns {
		fi.allocates = hasDirectAlloc(fi)
	}

	// Pass 2: report violations inside annotated functions.
	for _, fi := range fns {
		if !fi.annotated {
			continue
		}
		checkHotFunc(pass, fi, byName, byMethod, importNames)
	}
	return nil, nil
}

// ownedNames returns the identifiers an annotated function may grow via
// append: its parameters and receiver (caller-owned storage).
func ownedNames(fd *ast.FuncDecl) map[string]bool {
	owned := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				owned[n.Name] = true
			}
		}
	}
	addFields(fd.Recv)
	if fd.Type.Params != nil {
		addFields(fd.Type.Params)
	}
	return owned
}

// rootIdent unwraps selectors, indexing, derefs and slicing to the leftmost
// identifier of an lvalue-ish expression, or nil when there isn't one.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// allocKind classifies one AST node as a direct allocation site. skipLits
// collects composite literals already accounted for by an enclosing &T{...}
// so they are not double-reported.
func allocKind(n ast.Node, owned map[string]bool, skipLits map[*ast.CompositeLit]bool) (string, bool) {
	switch x := n.(type) {
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "make":
				return "make", true
			case "new":
				return "new", true
			case "append":
				if len(x.Args) == 0 {
					return "", false
				}
				root := rootIdent(x.Args[0])
				if root == nil || !owned[root.Name] {
					dst := "non-parameter destination"
					if root != nil {
						dst = root.Name
					}
					return "append growing " + dst, true
				}
			}
		}
	case *ast.UnaryExpr:
		if lit, ok := x.X.(*ast.CompositeLit); ok {
			skipLits[lit] = true
			return "&composite literal", true
		}
	case *ast.CompositeLit:
		if skipLits[x] {
			return "", false
		}
		switch t := x.Type.(type) {
		case *ast.ArrayType:
			if t.Len == nil {
				return "slice literal", true
			}
		case *ast.MapType:
			return "map literal", true
		}
	case *ast.FuncLit:
		return "func literal", true
	}
	return "", false
}

// hasDirectAlloc reports whether fi's body contains at least one direct
// allocation not waived by a reasoned //wivi:alloc annotation.
func hasDirectAlloc(fi *fnInfo) bool {
	owned := ownedNames(fi.decl)
	skip := map[*ast.CompositeLit]bool{}
	found := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := allocKind(n, owned, skip); ok {
			if ann, waived := fi.ix.Covering(n.Pos()); !waived || ann.Reason == "" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkHotFunc reports each allocation and each call to an allocating,
// non-annotated same-package function inside the annotated function fi.
func checkHotFunc(pass *analysis.Pass, fi *fnInfo, byName, byMethod map[string][]*fnInfo, importNames map[*ast.File]map[string]bool) {
	var file *ast.File
	for _, f := range pass.Files {
		if f.Pos() <= fi.decl.Pos() && fi.decl.Pos() < f.End() {
			file = f
			break
		}
	}
	imps := importNames[file]
	owned := ownedNames(fi.decl)
	skip := map[*ast.CompositeLit]bool{}
	fname := fi.decl.Name.Name

	report := func(n ast.Node, format string, args ...any) {
		if ann, ok := fi.ix.Covering(n.Pos()); ok {
			if ann.Reason == "" {
				pass.Reportf(n.Pos(), "//wivi:alloc needs a reason: say why this allocation in hotpath %s is sanctioned", fname)
			}
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if kind, ok := allocKind(n, owned, skip); ok {
			report(n, "%s in //wivi:hotpath function %s; hoist into a workspace/plan or annotate //wivi:alloc <reason>", kind, fname)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callees []*fnInfo
		var calleeName string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if builtinCalls[fun.Name] {
				return true
			}
			calleeName, callees = fun.Name, byName[fun.Name]
		case *ast.SelectorExpr:
			if base, ok := fun.X.(*ast.Ident); ok && imps[base.Name] {
				return true // cross-package call: out of scope by design
			}
			calleeName, callees = fun.Sel.Name, byMethod[fun.Sel.Name]
		default:
			return true
		}
		for _, callee := range callees {
			if callee.decl == fi.decl {
				continue // recursion: already being checked
			}
			if !callee.annotated && callee.allocates {
				report(call, "call to %s, which allocates and is not //wivi:hotpath, from hotpath %s; annotate the callee or waive with //wivi:alloc <reason>", calleeName, fname)
				break
			}
		}
		return true
	})
}
