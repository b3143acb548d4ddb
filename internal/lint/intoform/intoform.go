// Package intoform enforces the Into-form delegation convention
// (DESIGN.md §6): when an exported convenience function Xxx has a sibling
// XxxInto (or XxxAppend) taking caller-owned storage, the convenience form
// must be a thin delegator — allocate the destination, call the sibling,
// return. Logic duplicated between the two forms is how they drift apart;
// the frame-kernel and FFT work made the Into forms the single source of
// truth, and this analyzer keeps it that way.
//
// Detection is name-based and same-package: an exported function/method Xxx
// pairs with a sibling whose lowercased name equals lower(Xxx)+"into" or
// lower(Xxx)+"append" on the same receiver base type. The case-insensitive
// match covers unexported siblings (BartlettSpectrum / bartlettSpectrumInto).
//
// "Thin delegator" means, syntactically:
//
//   - exactly one call to the sibling;
//   - every other call is destination setup: make/new/len/cap/copy or a
//     New* constructor (workspace/plan allocation). Calls inside an
//     early-return guard (an if whose body is a single return) are
//     validation and error propagation, and are allowed;
//   - no for/range loops, except pure destination-setup loops in which
//     every statement assigns a make/new result (allocating the rows of a
//     2-D destination) — any other loop is reimplemented kernel logic.
//
// _test.go files are exempt (TestX / TestXInto are not an API pair).
// There is no waiver annotation: a pair that genuinely should not delegate
// should not share the Into/Append naming convention.
package intoform

import (
	"go/ast"
	"go/token"
	"strings"

	"wivi/internal/lint/analysis"
)

// Analyzer is the intoform instance.
var Analyzer = &analysis.Analyzer{
	Name: "intoform",
	Doc:  "exported Xxx with an XxxInto/XxxAppend sibling must be a thin delegator to it",
	Run:  run,
}

var setupCalls = map[string]bool{
	"make": true, "new": true, "len": true, "cap": true, "copy": true,
	"min": true, "max": true,
}

type fn struct {
	decl *ast.FuncDecl
	recv string // receiver base type name, "" for plain functions
}

func run(pass *analysis.Pass) (any, error) {
	byKey := map[string]*fn{} // recv + "\x00" + lower(name) -> decl
	var exported []*fn
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Filename(file.Pos()), "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			f := &fn{decl: fd, recv: recvBase(fd)}
			byKey[f.recv+"\x00"+strings.ToLower(fd.Name.Name)] = f
			if fd.Name.IsExported() && fd.Body != nil {
				exported = append(exported, f)
			}
		}
	}
	for _, f := range exported {
		lower := strings.ToLower(f.decl.Name.Name)
		for _, suffix := range []string{"into", "append"} {
			sib, ok := byKey[f.recv+"\x00"+lower+suffix]
			if !ok || sib.decl == f.decl {
				continue
			}
			checkDelegator(pass, f, sib)
		}
	}
	return nil, nil
}

// recvBase returns the receiver's base type name ("" for plain functions),
// unwrapping pointers and type parameters.
func recvBase(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// checkDelegator verifies that f's body is a thin delegation to sib.
func checkDelegator(pass *analysis.Pass, f, sib *fn) {
	name := f.decl.Name.Name
	sibName := sib.decl.Name.Name
	sibCalls := 0
	guards := guardRanges(f.decl.Body)
	inGuard := func(pos token.Pos) bool {
		for _, g := range guards {
			if g.from <= pos && pos < g.to {
				return true
			}
		}
		return false
	}
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			if !isSetupLoop(x.Body) {
				pass.Reportf(n.Pos(), "loop in %s, which has sibling %s; the convenience form must delegate, not reimplement", name, sibName)
			}
		case *ast.RangeStmt:
			if !isSetupLoop(x.Body) {
				pass.Reportf(n.Pos(), "loop in %s, which has sibling %s; the convenience form must delegate, not reimplement", name, sibName)
			}
		case *ast.CallExpr:
			callee := calleeName(x)
			switch {
			case callee == sibName:
				sibCalls++
			case callee == "", setupCalls[callee], strings.HasPrefix(callee, "New"), inGuard(x.Pos()):
				// Destination/workspace setup and early-return guard
				// validation are what the convenience form is for.
			default:
				pass.Reportf(x.Pos(), "call to %s in %s, which has sibling %s; the convenience form may only allocate the destination and delegate", callee, name, sibName)
			}
		}
		return true
	})
	if sibCalls != 1 {
		pass.Reportf(f.decl.Pos(), "%s must delegate to its sibling %s exactly once (found %d calls)", name, sibName, sibCalls)
	}
}

type posRange struct{ from, to token.Pos }

// guardRanges collects the source ranges of early-return guard bodies: if
// statements whose body is a single return. Calls inside them (error
// construction, validation) do not count against thin delegation.
func guardRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || len(ifs.Body.List) != 1 {
			return true
		}
		if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); ok {
			out = append(out, posRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

// isSetupLoop reports whether a loop body is pure destination setup: every
// statement assigns the result of a single make/new call (e.g. allocating
// the rows of a 2-D destination before delegating).
func isSetupLoop(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || (id.Name != "make" && id.Name != "new") {
			return false
		}
	}
	return true
}

// calleeName extracts the called function/method name from a call
// expression ("" when it is not a simple name — e.g. a called func value).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
