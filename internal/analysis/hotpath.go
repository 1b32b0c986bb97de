package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath audits functions annotated //repro:hotpath for the allocation-prone
// constructs that the repository's 0 allocs/op benchmark gates exist to keep
// out of the event loop:
//
//   - function literals that capture enclosing variables (each capture is a
//     heap-allocated closure cell);
//   - fmt.Sprintf-family and errors.New calls outside panic arguments
//     (formatting allocates; hot paths report failure by panicking or by
//     returning pre-built errors);
//   - conversions of concrete non-pointer-shaped values to interface types
//     (boxing allocates), again outside panic arguments;
//   - append to a slice the function does not own — neither reachable from
//     the receiver nor declared in the function body — which can grow a
//     caller's backing array mid-loop.
//
// Functions are audited when annotated //repro:hotpath, and also when any
// parameter is a *simkernel.ContProc: continuation Step bodies run inline
// on the kernel's event loop — the whole point of the run-to-completion
// engine — so they are hot by construction and need no annotation. Hotness
// propagates through receivers: if any method of a named type takes a
// *ContProc, the type is a continuation machine and ALL its methods (in
// non-test files) are audited — a Step body's helpers (message handlers,
// queue feeders) run just as inline as Step itself, and factoring code out
// of Step must not move it out of the audit. Test files are exempt from
// both implicit rules (test cont machines exist to exercise semantics, not
// to be fast); an explicit //repro:hotpath in a test still audits as usual.
//
// Intentional occurrences (a once-cached closure, a cold error path) carry
// //repro:allow hotpath <reason> on the offending line.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "keep //repro:hotpath functions and continuation Step bodies free of allocation-prone constructs",
	Run:  runHotPath,
}

// fmtAllocFuncs are the fmt functions that build a string (or write one)
// through reflection-driven formatting.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
}

func runHotPath(pass *Pass) error {
	hotRecv := contMachines(pass)
	for _, f := range pass.Files {
		isTest := isTestFile(pass, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			implicit := !isTest && implicitlyHot(pass, fn, hotRecv)
			if !hasHotpathDirective(fn) && !implicit {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	h := &hotChecker{pass: pass, fn: fn}
	h.collectPanicRanges()
	h.mapReturnSignatures()
	ast.Inspect(fn.Body, h.visit)
}

type hotChecker struct {
	pass *Pass
	fn   *ast.FuncDecl

	// panicRanges are the source ranges of panic(...) calls; allocation inside
	// them is the sanctioned way for a hot function to report a broken
	// invariant, since the process is dying anyway.
	panicRanges [][2]token.Pos

	// retSig maps each return statement to the signature it returns from
	// (the annotated function's, or an enclosing function literal's).
	retSig map[*ast.ReturnStmt]*types.Signature
}

func (h *hotChecker) collectPanicRanges() {
	ast.Inspect(h.fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(h.pass.Info, call, "panic") {
			h.panicRanges = append(h.panicRanges, [2]token.Pos{call.Pos(), call.End()})
		}
		return true
	})
}

func (h *hotChecker) inPanic(pos token.Pos) bool {
	for _, r := range h.panicRanges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func (h *hotChecker) mapReturnSignatures() {
	h.retSig = map[*ast.ReturnStmt]*types.Signature{}
	var fnSig *types.Signature
	if obj, ok := h.pass.Info.Defs[h.fn.Name].(*types.Func); ok {
		fnSig = obj.Type().(*types.Signature)
	}
	ast.Inspect(h.fn.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			h.retSig[r] = fnSig
		}
		return true
	})
	// Function literals are visited outermost-first, so inner literals
	// overwrite outer assignments and each return ends up with the signature
	// of its nearest enclosing function.
	ast.Inspect(h.fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sig, _ := h.pass.Info.Types[lit.Type].Type.(*types.Signature)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if r, ok := m.(*ast.ReturnStmt); ok {
				h.retSig[r] = sig
			}
			return true
		})
		return true
	})
}

func (h *hotChecker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		h.checkCapture(n)
	case *ast.CallExpr:
		h.checkCall(n)
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) && n.Tok != token.DEFINE {
			for i, rhs := range n.Rhs {
				if t := h.pass.Info.Types[n.Lhs[i]].Type; t != nil {
					h.checkBoxing(rhs, t)
				}
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			if t := h.pass.Info.Types[n.Type].Type; t != nil {
				for _, v := range n.Values {
					h.checkBoxing(v, t)
				}
			}
		}
	case *ast.ReturnStmt:
		sig := h.retSig[n]
		if sig != nil && sig.Results().Len() == len(n.Results) {
			for i, res := range n.Results {
				h.checkBoxing(res, sig.Results().At(i).Type())
			}
		}
	case *ast.SendStmt:
		if t := h.pass.Info.Types[n.Chan].Type; t != nil {
			if ch, ok := t.Underlying().(*types.Chan); ok {
				h.checkBoxing(n.Value, ch.Elem())
			}
		}
	}
	return true
}

// checkCapture flags variables a function literal closes over.
func (h *hotChecker) checkCapture(lit *ast.FuncLit) {
	var captured []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := h.pass.Info.Uses[id]
		if obj == nil || seen[obj] || !localVar(h.pass.Pkg, obj) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the literal (params included)
		}
		seen[obj] = true
		captured = append(captured, obj.Name())
		return true
	})
	if len(captured) > 0 {
		h.pass.Reportf(lit.Pos(), "closure captures %s and allocates per call; hoist the state into the receiver, or cache the closure and waive with //repro:allow hotpath <reason>", strings.Join(captured, ", "))
	}
}

func (h *hotChecker) checkCall(call *ast.CallExpr) {
	// Explicit conversion: T(x) with T an interface type.
	if tv, ok := h.pass.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			h.checkBoxing(call.Args[0], tv.Type)
		}
		return
	}

	if fn := calleeFunc(h.pass.Info, call); fn != nil && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] && isPkgFunc(fn, "fmt", fn.Name()):
			if !h.inPanic(call.Pos()) {
				h.pass.Reportf(call.Pos(), "fmt.%s allocates through reflection-driven formatting; hot paths must panic or return pre-built errors (cold paths waive with //repro:allow hotpath <reason>)", fn.Name())
			}
			return // the formatting report subsumes boxing of its arguments
		case isPkgFunc(fn, "errors", "New"):
			if !h.inPanic(call.Pos()) {
				h.pass.Reportf(call.Pos(), "errors.New allocates per call; hoist the error into a package-level var (or waive with //repro:allow hotpath <reason>)")
			}
			return
		}
	}

	if isBuiltin(h.pass.Info, call, "append") && len(call.Args) > 0 {
		h.checkAppend(call)
		return
	}

	// Arguments converted to interface parameters box their operands.
	sig, _ := h.pass.Info.Types[call.Fun].Type.(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // s... passes the slice itself
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			h.checkBoxing(arg, pt)
		}
	}
}

// checkBoxing reports expr when assigning it to target converts a concrete
// non-pointer-shaped value into an interface.
func (h *hotChecker) checkBoxing(expr ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	tv, ok := h.pass.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	src := tv.Type
	if types.IsInterface(src.Underlying()) || pointerShaped(src) {
		return
	}
	if h.inPanic(expr.Pos()) {
		return
	}
	h.pass.Reportf(expr.Pos(), "converting %s to %s boxes the value on the heap; keep hot-path data concrete (or waive with //repro:allow hotpath <reason>)", src, target)
}

// pointerShaped reports whether values of t fit in an interface word without
// allocating: pointers, channels, maps, funcs and unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkAppend flags append whose destination slice the function neither owns
// through its receiver nor declared in its own body.
func (h *hotChecker) checkAppend(call *ast.CallExpr) {
	base := ast.Unparen(call.Args[0])
	if root := rootIdent(base); root != nil {
		if obj := h.pass.Info.Uses[root]; obj != nil {
			if h.isReceiver(obj) {
				return // receiver-owned storage (k.queue, k.pool, ...)
			}
			if localVar(h.pass.Pkg, obj) && obj.Pos() > h.fn.Body.Lbrace {
				return // declared in this function's body
			}
		}
	}
	h.pass.Reportf(call.Pos(), "append to %s, which this function does not own (not receiver state, not a body-local slice); growth reallocates a caller's backing array — restructure, or waive with //repro:allow hotpath <reason>", exprString(base))
}

func (h *hotChecker) isReceiver(obj types.Object) bool {
	if h.fn.Recv == nil || len(h.fn.Recv.List) == 0 || len(h.fn.Recv.List[0].Names) == 0 {
		return false
	}
	return h.pass.Info.Defs[h.fn.Recv.List[0].Names[0]] == obj
}

// rootIdent walks selector/index/star/paren chains to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return fmt.Sprintf("%T", e)
}
