package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ContBlock rejects goroutine-blocking operations inside continuation
// bodies. The run-to-completion engine resumes a *ContProc inline on the
// kernel's event loop; anything that parks the calling goroutine there —
// the blocking kernel primitives (Resource.Acquire, Proc.Sleep,
// Proc.Await), mpisim's Recv and Barrier, raw channel operations, select,
// spawning goroutines, sync/time primitives — deadlocks the simulation or
// silently serializes it. Only the cont variants (mpisim RecvCont/RecvOp,
// AcquireCont, WaitCont, ContProc.SleepUntil chains, a nested machine's
// Step) are legal.
//
// The audit scope is the same receiver-propagated set hotpath uses: any
// function taking a *ContProc and every method of a continuation machine.
// Exempt are test files, functions taking a *simkernel.Proc (blocking
// facades run on a goroutine process, where parking is the contract), and
// the blocking primitives' own implementations. Deliberate crossings (the
// kernel's blocking-body adapter, whose Step is the one channel handoff)
// carry //repro:allow contblock <reason>.
var ContBlock = &Analyzer{
	Name: "contblock",
	Doc:  "continuation bodies must not call goroutine-blocking kernel or runtime primitives",
	Run:  runContBlock,
}

const mpisimPkg = "repro/internal/mpisim"

// blockedOp identifies one goroutine-blocking method by package, receiver
// type, and name.
type blockedOp struct{ pkg, recv, name string }

// blockedOps maps each blocking primitive to its continuation-legal
// replacement (empty when there is none and the design must change).
var blockedOps = map[blockedOp]string{
	{contProcPkg, "Resource", "Acquire"}:  "AcquireCont",
	{contProcPkg, "Signal", "Wait"}:       "WaitCont",
	{contProcPkg, "WaitGroup", "Wait"}:    "WaitCont",
	{contProcPkg, "Proc", "Sleep"}:        "ContProc.Sleep",
	{contProcPkg, "Proc", "SleepSeconds"}: "ContProc.SleepSeconds",
	{contProcPkg, "Proc", "SleepUntil"}:   "ContProc.SleepUntil",
	{contProcPkg, "Proc", "Suspend"}:      "a cont pause (Pause and resume via Waker)",
	{contProcPkg, "Proc", "Await"}:        "the machine's Step, advancing past it once it returns true",
	{contProcPkg, "Kernel", "Run"}:        "",
	{contProcPkg, "Kernel", "RunUntil"}:   "",
	{mpisimPkg, "Rank", "Recv"}:           "RecvCont",
	{mpisimPkg, "Rank", "Barrier"}:        "",
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
			if !implicitlyHot(pass, fn, machines) {
				continue
			}
			// A blocking facade by signature: a function taking a *Proc runs
			// on a goroutine process (driving machines through Proc.Await),
			// where parking is the contract.
			if hasSimkernelPtrParam(pass, fn.Type, "Proc") {
				continue
			}
			// The blocking primitives' own implementations are the one place
			// blocking is the job.
			if isBlockedOpDecl(pass, fn) {
				continue
			}
			checkContFunc(pass, fn)
		}
	}
	return nil
}

// isBlockedOpDecl reports whether fn declares one of the blocked primitives.
func isBlockedOpDecl(pass *Pass, fn *ast.FuncDecl) bool {
	tn := recvTypeName(pass, fn)
	if tn == nil {
		return false
	}
	_, ok := blockedOps[blockedOp{pass.Pkg.Path(), tn.Name(), fn.Name.Name}]
	return ok
}

func checkContFunc(pass *Pass, fn *ast.FuncDecl) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Literals handed to Spawn (func(p *Proc)) are
			// goroutine bodies and may block.
			if hasSimkernelPtrParam(pass, n.Type, "Proc") {
				return false
			}
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
	op := blockedOp{fn.Pkg().Path(), recv.Name(), fn.Name()}
	alt, ok := blockedOps[op]
	if !ok {
		return
	}
	msg := recv.Name() + "." + fn.Name() + " suspends the calling goroutine; a continuation body resumes inline on the event loop and must never block"
	if alt != "" {
		msg += "; use " + alt
	}
	pass.Reportf(call.Pos(), "%s (or waive with //repro:allow contblock <reason>)", msg)
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
