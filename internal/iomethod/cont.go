package iomethod

import "repro/internal/simkernel"

// StepCont is one rank's collective output step in flight, as a
// simkernel.Cont machine: Step returns true when this rank's participation
// (including any coordination roles the rank carries) has finished, or
// arranges a wakeup, marks the process parked, and returns false. Wakeups
// re-enter Step to continue the same operation (advance style), so a
// driving machine must move its own program counter past the step before
// yielding.
type StepCont interface {
	// Step drives the rank's participation; see simkernel.Cont.
	Step(c *simkernel.ContProc) bool

	// Result returns the shared step result and this rank's error; valid
	// once Step has returned true.
	Result() (*StepResult, error)
}
