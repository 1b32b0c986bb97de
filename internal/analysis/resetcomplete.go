package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResetComplete makes the stale-state bug class introduced by world reuse a
// lint error: every field of a type with a Reset (or unexported reset) method
// must be assigned in that method, reached through a callee's reset, or
// explicitly waived with //repro:reset-skip <why> on the field. Pooled worlds
// are reset, not rebuilt, between replicas — a field Reset forgets leaks one
// replica's state into the next and corrupts golden checksums in ways that
// surface only when a reused world is compared with a fresh one (as
// scenario's TestWorldReuseDeterminism does).
//
// A field counts as handled when the method (or a same-receiver method it
// calls) assigns it, ranges over it, clears or copies into it, calls a method
// on it (Reset, ReseedNamed, ...), takes its address, or wholesale-assigns
// *recv.
var ResetComplete = &Analyzer{
	Name: "resetcomplete",
	Doc:  "every field of a type with a Reset method is reset, delegated, or explicitly waived",
	Run:  runResetComplete,
}

func runResetComplete(pass *Pass) error {
	rc := &resetChecker{pass: pass, methods: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				rc.methods[obj] = fn
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (fn.Name.Name != "Reset" && fn.Name.Name != "reset") {
				continue
			}
			rc.checkReset(fn)
		}
	}
	return nil
}

type resetChecker struct {
	pass    *Pass
	methods map[*types.Func]*ast.FuncDecl
}

func (rc *resetChecker) checkReset(fn *ast.FuncDecl) {
	named, recvObj := rc.receiver(fn)
	if named == nil || recvObj == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return
	}

	handled := map[string]bool{}
	visited := map[*ast.FuncDecl]bool{}
	rc.markHandled(fn, recvObj, handled, visited)

	skipped := rc.skippedFields(named.Obj().Name())

	for i := 0; i < st.NumFields(); i++ {
		name := st.Field(i).Name()
		if handled["*"] || handled[name] {
			continue // a skip on a handled field stays unmarked: it is stale
		}
		if pos, ok := skipped[name]; ok {
			rc.pass.MarkDirectiveUsed(pos)
			continue
		}
		rc.pass.Reportf(fn.Name.Pos(), "%s.%s: field %s is not reset; assign it here, reset it through a callee, or waive it with //repro:reset-skip <why> on the field", named.Obj().Name(), fn.Name.Name, name)
	}
}

// receiver resolves fn's receiver to its package-local named struct type and
// the receiver variable. Unnamed receivers and value receivers are skipped —
// a value-receiver Reset cannot reset anything.
func (rc *resetChecker) receiver(fn *ast.FuncDecl) (*types.Named, types.Object) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil, nil
	}
	recvObj := rc.pass.Info.Defs[fn.Recv.List[0].Names[0]]
	if recvObj == nil {
		return nil, nil
	}
	ptr, ok := recvObj.Type().(*types.Pointer)
	if !ok {
		return nil, nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() != rc.pass.Pkg {
		return nil, nil
	}
	return named, recvObj
}

// markHandled walks fn's body marking fields of recvObj that the method
// handles, recursing into same-receiver methods it calls. handled["*"] means
// a wholesale *recv assignment was seen.
func (rc *resetChecker) markHandled(fn *ast.FuncDecl, recvObj types.Object, handled map[string]bool, visited map[*ast.FuncDecl]bool) {
	if visited[fn] {
		return
	}
	visited[fn] = true

	// Map this method's own receiver name: when recursing into fs.reset()
	// from FileSystem.Reset, the callee's receiver stands for the same object.
	localRecv := recvObj
	if len(fn.Recv.List[0].Names) > 0 {
		localRecv = rc.pass.Info.Defs[fn.Recv.List[0].Names[0]]
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				rc.markExpr(lhs, localRecv, handled)
				if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
					if id := rootIdent(star.X); id != nil && rc.pass.Info.Uses[id] == localRecv {
						handled["*"] = true
					}
				}
			}
		case *ast.IncDecStmt:
			rc.markExpr(n.X, localRecv, handled)
		case *ast.RangeStmt:
			// Ranging over a receiver field with index writes (for i := range
			// recv.f { recv.f[i] = ... }) is the per-element reset idiom; the
			// element writes themselves also mark the field via AssignStmt.
			rc.markExpr(n.X, localRecv, handled)
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				rc.markExpr(n.X, localRecv, handled)
			}
		case *ast.CallExpr:
			rc.markCall(n, localRecv, handled, visited)
		}
		return true
	})
}

func (rc *resetChecker) markCall(call *ast.CallExpr, recvObj types.Object, handled map[string]bool, visited map[*ast.FuncDecl]bool) {
	if isBuiltin(rc.pass.Info, call, "clear") || isBuiltin(rc.pass.Info, call, "copy") {
		if len(call.Args) > 0 {
			rc.markExpr(call.Args[0], recvObj, handled)
		}
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// A method call on a field chain (c.kernel.Reset(), fs.rng.ReseedNamed(...))
	// delegates that field's reset to the field's own type.
	rc.markExpr(sel.X, recvObj, handled)
	// A call to another method on the same receiver (fs.reset(...)) transfers
	// that method's assignments.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && rc.pass.Info.Uses[id] == recvObj {
		if callee, ok := rc.pass.Info.Uses[sel.Sel].(*types.Func); ok {
			if decl := rc.methods[callee]; decl != nil {
				rc.markHandled(decl, rc.declRecv(decl), handled, visited)
			}
		}
	}
}

func (rc *resetChecker) declRecv(fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return rc.pass.Info.Defs[fn.Recv.List[0].Names[0]]
}

// markExpr marks the receiver field at the root of a selector chain: for
// recv.f[i].g = x the directly touched receiver field is f.
func (rc *resetChecker) markExpr(expr ast.Expr, recvObj types.Object, handled map[string]bool) {
	if recvObj == nil {
		return
	}
	e := ast.Expr(expr)
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id := baseIdent(x.X); id != nil && rc.pass.Info.Uses[id] == recvObj {
				handled[x.Sel.Name] = true
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// baseIdent unwraps parens and derefs (not selectors) to an identifier, so
// both recv.f and (*recv).f resolve their base.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// skippedFields collects //repro:reset-skip waivers from the struct's
// declaration, mapping each waived field name to its directive's position so
// genuinely-load-bearing waivers can be marked used.
func (rc *resetChecker) skippedFields(typeName string) map[string]token.Pos {
	skipped := map[string]token.Pos{}
	for _, f := range rc.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					_, pos, ok := resetSkipReason(field)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						skipped[name.Name] = pos
					}
				}
			}
		}
	}
	return skipped
}
