package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ContBlock rejects thread-blocking operations inside continuation bodies.
// The kernel resumes a *ContProc inline on its event loop, so anything
// that blocks the calling goroutine there — raw channel operations,
// select, spawning goroutines, sync/time primitives — deadlocks the
// simulation or silently serializes it, and re-entering the event loop
// (Kernel.Run, Kernel.RunUntil) from a body is a bug of the same kind. A
// body waits only through its ContProc yields and the primitives' *Cont
// forms (AcquireCont, WaitCont, mpisim RecvCont, a nested machine's Step).
//
// The audit scope is the same receiver-propagated set hotpath uses: any
// function taking a *ContProc and every method of a continuation machine,
// including the function literals inside them. Test files are exempt.
// Deliberate crossings carry //repro:allow contblock <reason>.
var ContBlock = &Analyzer{
	Name: "contblock",
	Doc:  "continuation bodies must not block the event loop or re-enter it",
	Run:  runContBlock,
}

// blockedOp identifies one forbidden method by package, receiver type, and
// name.
type blockedOp struct{ pkg, recv, name string }

// blockedOps lists the methods a continuation body must never call: they
// run the event loop the body is already running on.
var blockedOps = map[blockedOp]bool{
	{contProcPkg, "Kernel", "Run"}:      true,
	{contProcPkg, "Kernel", "RunUntil"}: true,
}

func runContBlock(pass *Pass) error {
	machines := contMachines(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if implicitlyHot(pass, fn, machines) {
				checkContFunc(pass, fn)
			}
		}
	}
	return nil
}

func checkContFunc(pass *Pass, fn *ast.FuncDecl) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkContCall(pass, n)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in a continuation body: the event loop must stay single-threaded and run-to-completion; use Kernel.SpawnCont (or waive with //repro:allow contblock <reason>)")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in a continuation body parks the event-loop goroutine; leave the value in shared state and wake the receiver with its Waker (or waive with //repro:allow contblock <reason>)")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in a continuation body parks the event-loop goroutine; register a kernel wakeup and yield, e.g. mpisim Rank.RecvCont (or waive with //repro:allow contblock <reason>)")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in a continuation body parks the event-loop goroutine; continuations resume from kernel wakeups instead (or waive with //repro:allow contblock <reason>)")
		case *ast.RangeStmt:
			if t := pass.Info.Types[n.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over a channel in a continuation body parks the event-loop goroutine; take one item per kernel wakeup instead (or waive with //repro:allow contblock <reason>)")
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

func checkContCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if isPkgFunc(fn, "time", "Sleep") {
		pass.Reportf(call.Pos(), "time.Sleep blocks the event-loop goroutine and wall-clock time does not exist in the simulation; use ContProc.Sleep (or waive with //repro:allow contblock <reason>)")
		return
	}
	recv := methodRecvTypeName(fn)
	if recv == nil {
		return
	}
	if fn.Pkg().Path() == "sync" {
		pass.Reportf(call.Pos(), "sync.%s.%s in a continuation body can park the event-loop goroutine; the kernel is single-threaded and needs no locking (or waive with //repro:allow contblock <reason>)", recv.Name(), fn.Name())
		return
	}
	if blockedOps[blockedOp{fn.Pkg().Path(), recv.Name(), fn.Name()}] {
		pass.Reportf(call.Pos(), "%s.%s in a continuation body re-enters the event loop the body is running on; yield and let the kernel resume the body instead (or waive with //repro:allow contblock <reason>)", recv.Name(), fn.Name())
	}
}

// methodRecvTypeName returns the named type a *types.Func is a method on,
// or nil for plain functions.
func methodRecvTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedTypeName(sig.Recv().Type())
}
