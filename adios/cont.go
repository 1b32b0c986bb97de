package adios

import (
	"fmt"

	"repro/internal/iomethod"
	"repro/internal/simkernel"
)

// CloseCont is a collective close in flight: the transport's step machine
// behind File.Close, for rank bodies that run as continuations
// (cluster.World.LaunchCont). The zero value is ready; one CloseCont may be
// reused across sequential steps. Arm it with File.BeginCloseCont, drive it
// with Step (advance style — move the machine's program counter past the
// close before yielding), then read Result.
type CloseCont struct {
	sc iomethod.StepCont
}

// BeginCloseCont arms cc to perform this file's collective output. Like
// Close, the file is consumed (a second close of the same handle fails).
func (f *File) BeginCloseCont(cc *CloseCont) {
	if f.done {
		panic(fmt.Sprintf("adios: double Close on step %q", f.name))
	}
	f.done = true
	cc.sc = f.io.method.BeginStepCont(f.rank, f.name, f.data)
}

// Step drives the collective close; see simkernel.Cont.
//
//repro:hotpath
func (cc *CloseCont) Step(c *simkernel.ContProc) bool { return cc.sc.Step(c) }

// Result returns what the equivalent Close call would have returned; valid
// once Step has returned true.
func (cc *CloseCont) Result() (*StepResult, error) {
	res, err := cc.sc.Result()
	if err != nil {
		return nil, err
	}
	return &StepResult{StepResult: res}, nil
}
