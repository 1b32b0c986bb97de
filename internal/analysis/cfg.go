package analysis

// Control-flow graphs over go/ast, for the dataflow-backed analyzer
// (ringdiscipline). x/tools is unobtainable in this module's
// hermetic build, so this is a from-scratch intraprocedural CFG builder in
// the spirit of golang.org/x/tools/go/cfg, reduced to what forward dataflow
// over statements needs.
//
// Each basic block holds a list of *atomic* nodes — simple statements and
// bare condition/tag expressions — in execution order. Compound statements
// never appear as block nodes: an if contributes its init and cond to the
// current block and branches; a for contributes head/body/post blocks; a
// switch contributes a chain of case-test blocks (Go evaluates case
// expressions in order) feeding per-clause body blocks, with fallthrough
// edges between bodies. Analyzers can therefore fold a transfer function
// over block nodes without ever double-visiting a nested statement.
//
// Panic calls terminate their block with no successors: state on a panic
// path never reaches the function exit.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// cfg is the control-flow graph of one function body. entry has no
// predecessors; exit collects every return and the fall-off-the-end path
// and holds no nodes of its own.
type cfg struct {
	entry, exit *cfgBlock
	blocks      []*cfgBlock
}

// loopFrame tracks the break/continue targets of an enclosing breakable
// statement. cont is nil for switch/select frames (continue skips them).
type loopFrame struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock
}

type cfgBuilder struct {
	c      *cfg
	cur    *cfgBlock // nil after a terminator: subsequent code is unreachable
	frames []loopFrame

	labels   map[string]*cfgBlock
	gotos    []pendingGoto
	ftTarget *cfgBlock // body block of the next case clause, if any
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{c: &cfg{}, labels: map[string]*cfgBlock{}}
	b.c.entry = b.newBlock()
	b.c.exit = b.newBlock()
	b.cur = b.c.entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.c.exit)
	}
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	return b.c
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.c.blocks)}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// add appends an atomic node to the current block, opening an unreachable
// block when the previous statement terminated control flow.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code keeps a home, with no preds
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

// startBlock ends the current block (edge to next) and makes next current.
func (b *cfgBuilder) startBlock(next *cfgBlock) {
	if b.cur != nil {
		b.edge(b.cur, next)
	}
	b.cur = next
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label carries an immediately enclosing label
// for loop/switch/select frames.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.startBlock(target)
		b.labels[s.Label.Name] = target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		then := b.newBlock()
		after := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, then)
		}
		var els *cfgBlock
		if s.Else != nil {
			els = b.newBlock()
			if b.cur != nil {
				b.edge(b.cur, els)
			}
		} else if b.cur != nil {
			b.edge(b.cur, after)
		}
		b.cur = then
		b.stmts(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, after)
		}
		b.edge(head, body)
		b.frames = append(b.frames, loopFrame{label: label, brk: after, cont: post})
		b.cur = body
		b.stmts(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		b.add(s.X) // the range operand is evaluated once, before the loop
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.startBlock(head)
		// Key/Value bindings happen per iteration; expose them as head nodes
		// so transfer functions see the assignments.
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.edge(head, body)
		b.edge(head, after)
		b.frames = append(b.frames, loopFrame{label: label, brk: after, cont: head})
		b.cur = body
		b.stmts(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label)

	case *ast.SelectStmt:
		// Every comm clause is a potential successor; without a default the
		// select blocks (irrelevant to dataflow: no state change while
		// parked).
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, brk: after})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmts(comm.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.edge(b.cur, b.c.exit)
		}
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findFrame(s.Label, false); t != nil && b.cur != nil {
				b.edge(b.cur, t.brk)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findFrame(s.Label, true); t != nil && b.cur != nil {
				b.edge(b.cur, t.cont)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			if b.cur != nil && b.ftTarget != nil {
				b.edge(b.cur, b.ftTarget)
			}
			b.cur = nil
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanicCall(call) {
			b.cur = nil // state on a panic path never reaches exit
		}

	default:
		// Assign, Decl, IncDec, Send, Defer, Go, Empty: atomic.
		b.add(s)
	}
}

// switchClauses lowers (type) switch clause lists: a chain of case-test
// blocks in source order (Go evaluates case expressions sequentially),
// each feeding its clause body; fallthrough edges link adjacent bodies.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string) {
	after := b.newBlock()
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}

	bodies := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}

	test := head
	defaultIdx := -1
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			defaultIdx = i
			continue
		}
		next := b.newBlock()
		b.cur = test
		for _, e := range cc.List {
			b.add(e)
		}
		b.edge(test, bodies[i])
		b.edge(test, next)
		test = next
	}
	// The final test block falls through to the default body, or out.
	if defaultIdx >= 0 {
		b.edge(test, bodies[defaultIdx])
	} else {
		b.edge(test, after)
	}

	b.frames = append(b.frames, loopFrame{label: label, brk: after})
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		b.ftTarget = nil
		if i+1 < len(bodies) {
			b.ftTarget = bodies[i+1]
		}
		b.cur = bodies[i]
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.ftTarget = nil
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// findFrame resolves a break/continue target. needLoop restricts the search
// to frames with a continue target (loops).
func (b *cfgBuilder) findFrame(label *ast.Ident, needLoop bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && f.cont == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// isPanicCall reports whether the call is a direct call to the panic
// builtin. It is syntactic (no Info): shadowing panic would defeat it, and
// nothing in this module does.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
