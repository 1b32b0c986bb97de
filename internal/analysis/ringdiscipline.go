package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RingDiscipline enforces the usage rules of simkernel.Ring, the in-place
// circular buffer every hot queue moved onto:
//
//   - R1 (dataflow): an index used with At/RemoveAt goes stale the moment
//     the same ring is mutated underneath it (Pop shifts every logical
//     index, RemoveAt shifts everything at or after the hole, Reset empties
//     the ring); reusing a stale index reads or removes the wrong element.
//     Recomputing the index (any assignment or ++/--) refreshes it. Push is
//     deliberately not a staleness point: it appends at the tail and keeps
//     existing logical indices valid.
//   - R2: Ring.Reset drops queued elements on the floor, which is only
//     sound during world reset; calls are legal from a function named
//     Reset/reset (and the literals nested in one), and flagged anywhere
//     else.
//   - R3: code outside Ring's own methods must not touch the buf/head/n
//     internals — in particular &ring.buf[i] dangles across the reallocating
//     Push and the index-remapping mutations.
//
// Test files are exempt; deliberate violations carry //repro:allow
// ringdiscipline <reason>.
var RingDiscipline = &Analyzer{
	Name: "ringdiscipline",
	Doc:  "Ring indices must not be reused across mutations, Reset only on reset paths, no internal field access",
	Run:  runRingDiscipline,
}

// ringStaleOps are the Ring methods that remap or invalidate logical
// indices.
var ringStaleOps = map[string]bool{"Pop": true, "RemoveAt": true, "Reset": true}

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
		for _, fb := range packageFuncBodies([]*ast.File{f}) {
			rf := &ringFunc{pass: pass, reports: map[string]Diagnostic{}}
			rf.analyze(fb.body)
		}
	}
	return nil
}

// isRingExpr reports whether an expression is a (pointer to) simkernel.Ring
// value, generic instance or fixture mirror alike.
func isRingExpr(pass *Pass, e ast.Expr) bool {
	tn := namedTypeName(pass.Info.Types[e].Type)
	return tn != nil && tn.Name() == "Ring" && tn.Pkg() != nil && tn.Pkg().Path() == contProcPkg
}

// ringMethodCall matches a method call on a ring and returns the receiver
// expression and method name.
func ringMethodCall(pass *Pass, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isRingExpr(pass, sel.X) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
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
			if _, name, ok := ringMethodCall(pass, n); ok && name == "Reset" && !resetPath && !ringRecv {
				pass.Reportf(n.Pos(), "Ring.Reset discards queued elements and is only sound during world reset; call it from a Reset method (or waive with //repro:allow ringdiscipline <reason>)")
			}
		case *ast.SelectorExpr:
			if ringInternals[n.Sel.Name] && isRingExpr(pass, n.X) && !ringRecv {
				pass.Reportf(n.Sel.Pos(), "direct access to Ring.%s outside Ring's methods: slot pointers and raw indices dangle across Push's reallocation and RemoveAt's remapping; go through the Ring API (or waive with //repro:allow ringdiscipline <reason>)", n.Sel.Name)
			}
		}
		return true
	})
}

// ringIdx is one index variable's binding: the ring chain it indexes and
// whether that ring has been mutated since.
type ringIdx struct {
	chain string
	stale bool
}

type ringState map[types.Object]ringIdx

// ringFunc runs the R1 index-staleness dataflow over one function body.
type ringFunc struct {
	pass    *Pass
	reports map[string]Diagnostic
}

func (rf *ringFunc) analyze(body *ast.BlockStmt) {
	g := buildCFG(body)
	lat := flowLattice[ringState]{
		transfer: rf.transfer,
		join: func(dst, src ringState) (ringState, bool) {
			changed := false
			for obj, sb := range src {
				db, ok := dst[obj]
				switch {
				case !ok:
					dst[obj] = sb
					changed = true
				case db.chain != sb.chain:
					delete(dst, obj) // conflicting bindings: give up on the var
					changed = true
				case sb.stale && !db.stale:
					db.stale = true
					dst[obj] = db
					changed = true
				}
			}
			return dst, changed
		},
		clone: func(s ringState) ringState {
			c := make(ringState, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
	}
	solveForward(g, ringState{}, lat)

	keys := make([]string, 0, len(rf.reports))
	for k := range rf.reports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := rf.reports[k]
		rf.pass.Reportf(d.Pos, "%s", d.Message)
	}
}

func (rf *ringFunc) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rf.reports[fmt.Sprintf("%d\x00%s", pos, msg)] = Diagnostic{Pos: pos, Message: msg}
}

func (rf *ringFunc) transfer(s ringState, n ast.Node) ringState {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Writes refresh the written vars; the RHS may still index rings.
		for _, rhs := range n.Rhs {
			rf.scanExpr(s, rhs)
		}
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := idObj(rf.pass, id); obj != nil {
					delete(s, obj)
				}
				continue
			}
			rf.scanExpr(s, lhs)
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if obj := idObj(rf.pass, id); obj != nil {
				delete(s, obj)
			}
		}
	case *ast.Ident:
		// Range Key/Value binding: written each iteration.
		if obj := idObj(rf.pass, n); obj != nil {
			delete(s, obj)
		}
	default:
		walkShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				rf.ringCall(s, call)
			}
			return true
		})
	}
	return s
}

// scanExpr applies ring-call effects inside one expression.
func (rf *ringFunc) scanExpr(s ringState, e ast.Expr) {
	walkShallow(e, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			rf.ringCall(s, call)
		}
		return true
	})
}

func (rf *ringFunc) ringCall(s ringState, call *ast.CallExpr) {
	recv, name, ok := ringMethodCall(rf.pass, call)
	if !ok {
		return
	}
	chain := exprString(recv)
	if (name == "At" || name == "RemoveAt") && len(call.Args) == 1 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := idObj(rf.pass, id); obj != nil {
				if b, bound := s[obj]; bound && b.chain == chain && b.stale {
					rf.reportf(id.Pos(), "index %s into %s is stale: the ring was mutated (Pop/RemoveAt/Reset) after the index was taken, so it no longer names the same element; recompute it (or waive with //repro:allow ringdiscipline <reason>)", id.Name, chain)
				}
				s[obj] = ringIdx{chain: chain}
			}
		}
	}
	if ringStaleOps[name] {
		for obj, b := range s {
			if b.chain == chain {
				b.stale = true
				s[obj] = b
			}
		}
	}
}

func idObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}
