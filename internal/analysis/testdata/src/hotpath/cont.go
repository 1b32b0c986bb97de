package hot

import "fmt"

// ContProc mirrors the kernel's continuation handle. The fixture package is
// loaded under the repro/internal/simkernel import path, so a parameter of
// type *ContProc marks a function as an implicitly hot continuation body —
// no //repro:hotpath directive required.
type ContProc struct {
	deadline int64
}

type contMachine struct {
	pc  int
	out []int
}

// Step has no directive: the *ContProc parameter alone makes the analyzer
// audit it.
func (m *contMachine) Step(c *ContProc) bool {
	switch m.pc {
	case 0:
		m.out = append(m.out, 1) // receiver-owned append: fine
		scratch := make([]int, 0, 4)
		scratch = append(scratch, m.pc) // body-local append: fine
		m.out = scratch
		m.pc = 1
		return false
	case 1:
		global = append(global, m.pc)   // want `append to global, which this function does not own`
		f := func() int { return m.pc } // want `closure captures m and allocates per call`
		_ = f()
		return false
	default:
		name := fmt.Sprintf("cont-%d", m.pc) // want `fmt.Sprintf allocates through reflection-driven formatting`
		_ = name
		sink = m.pc // want `converting int to any boxes the value on the heap`
		return true
	}
}

// stepHelper is not named Step and has extra parameters, but the *ContProc
// in its signature still marks it hot.
func stepHelper(c *ContProc, weight int) {
	consume(weight) // want `converting int to any boxes the value on the heap`
}

// markedCont takes a *ContProc, so its directive adds nothing to the audit
// and is reported as redundant.
//
//repro:hotpath // want `redundant //repro:hotpath`
func markedCont(c *ContProc, weight int) {
	consume(weight) // want `converting int to any boxes the value on the heap`
}

// panicInCont keeps the panic-path escape hatch: formatting inside panic
// arguments stays sanctioned for implicitly hot bodies too.
func panicInCont(c *ContProc) {
	if c.deadline < 0 {
		panic(fmt.Sprintf("negative deadline %d", c.deadline))
	}
}

// valueParam takes ContProc by value, not pointer — that is not the kernel's
// resume signature, so the function is not implicitly hot and its formatting
// goes unreported.
func valueParam(c ContProc) string {
	return fmt.Sprintf("%d", c.deadline)
}
