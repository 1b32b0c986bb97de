package analysis

// A generic forward dataflow solver over the CFGs built in cfg.go.
//
// Analyzers describe their lattice through flowLattice[S]: a transfer
// function folded over a block's atomic nodes, a join for merge points, and
// an equality test that bounds the fixpoint. The solver runs a worklist to
// fixpoint and hands back every block's in-state plus the joined exit state
// (what holds when the function returns). Blocks never reached from entry
// keep no state: their in-states are absent from the result, which
// reporting passes read as "unreachable, nothing to say".
//
// Termination is the analyzer's contract (finite lattice, monotone-enough
// transfer); a generous step budget backstops a buggy lattice so a lint run
// can never hang the build.

import "go/ast"

// flowLattice describes one dataflow problem over states of type S.
type flowLattice[S any] struct {
	// transfer folds one atomic CFG node into the state, in place or by
	// returning a replacement.
	transfer func(S, ast.Node) S
	// join merges a predecessor's out-state (src) into a block's in-state
	// (dst), returning the merge and whether dst changed. src must not be
	// retained.
	join func(dst, src S) (S, bool)
	// clone deep-copies a state so block in-states stay independent.
	clone func(S) S
}

// flowResult is the solved dataflow: in-states per reached block and the
// joined state at function exit. exitOK is false when no path reaches the
// exit (the function always panics or loops forever).
type flowResult[S any] struct {
	in     map[*cfgBlock]S
	exit   S
	exitOK bool
}

// maxFlowSteps bounds total block evaluations per function; real functions
// converge in a few passes, so hitting this means a broken lattice, and the
// solver just stops refining (the partial result under-reports rather than
// hanging).
const maxFlowSteps = 50000

// solveForward runs the worklist to fixpoint from the given entry state.
func solveForward[S any](g *cfg, entry S, lat flowLattice[S]) flowResult[S] {
	in := map[*cfgBlock]S{g.entry: entry}
	inQueue := map[*cfgBlock]bool{g.entry: true}
	queue := []*cfgBlock{g.entry}

	steps := 0
	for len(queue) > 0 && steps < maxFlowSteps {
		steps++
		blk := queue[0]
		queue = queue[1:]
		inQueue[blk] = false

		out := lat.clone(in[blk])
		for _, n := range blk.nodes {
			out = lat.transfer(out, n)
		}
		for _, succ := range blk.succs {
			cur, ok := in[succ]
			changed := false
			if !ok {
				in[succ] = lat.clone(out)
				changed = true
			} else {
				in[succ], changed = lat.join(cur, out)
			}
			if changed && !inQueue[succ] {
				inQueue[succ] = true
				queue = append(queue, succ)
			}
		}
	}

	res := flowResult[S]{in: in}
	if exitIn, ok := in[g.exit]; ok {
		res.exit = exitIn
		res.exitOK = true
	}
	return res
}

// walkShallow visits the expression structure of one atomic CFG node,
// skipping function-literal bodies (analyzed as functions of their own) —
// the visitor still sees the FuncLit node itself, so capture analysis can
// act on it. Compound statements never reach here by CFG construction.
func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if !visit(m) {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}

// funcBodies enumerates every function body in the package: declared
// functions and methods plus each function literal, which the dataflow
// analyzers treat as an independent function (its captures are analyzed by
// the enclosing function's pass). The enclosing FuncDecl is reported for
// context (nil for literals in package-level var initializers).
type funcBody struct {
	decl *ast.FuncDecl // nil for a literal outside any declared function
	lit  *ast.FuncLit  // nil for a declared function
	body *ast.BlockStmt
}

func packageFuncBodies(files []*ast.File) []funcBody {
	var out []funcBody
	for _, f := range files {
		var enclosing *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				enclosing = n
				if n.Body != nil {
					out = append(out, funcBody{decl: n, body: n.Body})
				}
			case *ast.FuncLit:
				out = append(out, funcBody{decl: enclosing, lit: n, body: n.Body})
			}
			return true
		})
	}
	return out
}
