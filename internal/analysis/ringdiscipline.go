package analysis

import (
	"go/ast"
	"strings"
)

// RingDiscipline enforces the usage rules of simkernel.Ring, the in-place
// circular buffer every hot queue moved onto. The Ring API takes and returns
// no element index, so no caller can hold one across a mutation; what is
// left to check is syntactic:
//
//   - R2: Ring.Reset drops queued elements on the floor, which is only
//     sound during world reset; calls are legal from a function named
//     Reset/reset (and the literals nested in one), and flagged anywhere
//     else.
//   - R3: code outside Ring's own methods must not touch the buf/head/n
//     internals — in particular &ring.buf[i] dangles across the reallocating
//     Push and the order-preserving shifts of RemoveFirst.
//
// Test files are exempt; deliberate violations carry //repro:allow
// ringdiscipline <reason>.
var RingDiscipline = &Analyzer{
	Name: "ringdiscipline",
	Doc:  "Ring.Reset only on reset paths, no access to Ring internals",
	Run:  runRingDiscipline,
}

// ringInternals are Ring's private fields (reachable only inside simkernel
// and fixtures loaded under its path, which is exactly where the hazard
// lives).
var ringInternals = map[string]bool{"buf": true, "head": true, "n": true}

func runRingDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		checkRingStatic(pass, f)
	}
	return nil
}

// isRingExpr reports whether an expression is a (pointer to) simkernel.Ring
// value, generic instance or fixture mirror alike.
func isRingExpr(pass *Pass, e ast.Expr) bool {
	tn := namedTypeName(pass.Info.Types[e].Type)
	return tn != nil && tn.Name() == "Ring" && tn.Pkg() != nil && tn.Pkg().Path() == contProcPkg
}

// ringMethodCall matches a method call on a ring and returns the method
// name.
func ringMethodCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isRingExpr(pass, sel.X) {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkRingStatic walks one file for the two syntactic rules: Reset callers
// (R2) and internal-field access (R3).
func checkRingStatic(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		tn := recvTypeName(pass, fn)
		ringRecv := tn != nil && tn.Name() == "Ring"
		resetPath := strings.EqualFold(fn.Name.Name, "reset")
		checkRingBody(pass, fn.Body, resetPath, ringRecv)
	}
}

// checkRingBody applies R2/R3 inside one function body, nested literals
// included: code inside a Reset method stays sanctioned however deeply it
// nests.
func checkRingBody(pass *Pass, body *ast.BlockStmt, resetPath, ringRecv bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := ringMethodCall(pass, n); ok && name == "Reset" && !resetPath && !ringRecv {
				pass.Reportf(n.Pos(), "Ring.Reset discards queued elements and is only sound during world reset; call it from a Reset method (or waive with //repro:allow ringdiscipline <reason>)")
			}
		case *ast.SelectorExpr:
			if ringInternals[n.Sel.Name] && isRingExpr(pass, n.X) && !ringRecv {
				pass.Reportf(n.Sel.Pos(), "direct access to Ring.%s outside Ring's methods: slot pointers and raw indices dangle across Push's reallocation and RemoveFirst's shifts; go through the Ring API (or waive with //repro:allow ringdiscipline <reason>)", n.Sel.Name)
			}
		}
		return true
	})
}
