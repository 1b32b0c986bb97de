package iomethod

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Steps is a method's registry of live steps by name. S is the method's
// own step state, which embeds a Step.
type Steps[S any] struct {
	live  map[string]*S
	count int // the next step's number
}

// Get returns the live step named name, or nil.
//
//repro:hotpath
func (r *Steps[S]) Get(name string) *S { return r.live[name] }

// Open numbers s, whose Step is st, and registers it as the live step name
// of ranks ranks. It arms the step's result, index log and setup barrier,
// which passes once every rank has reported (see SetupDone). files names
// the step's data files by the method's file number; the log's per-file
// lengths and block storage and the barrier are carved from k's slabs, so
// they are valid until k's next Reset. WriterTimes is a fresh slice: a
// scenario Sample keeps it past Reset.
func (r *Steps[S]) Open(k *simkernel.Kernel, s *S, st *Step, name string, ranks int, files []string) {
	*st = Step{Res: StepResult{WriterTimes: make([]float64, ranks), Files: len(files)}, name: name, ranks: ranks}
	st.setup = simkernel.TakeWaitGroup(simkernel.Local[simkernel.Slab[simkernel.WaitGroup]](k), ranks)
	st.Res.index = indexLog{
		step:   int64(r.count),
		files:  files,
		lens:   simkernel.Local[simkernel.Slab[int64]](k).Take(len(files)),
		blocks: simkernel.Local[simkernel.Slab[Block]](k).Take(ranks)[:0],
	}
	r.count++
	if r.live == nil {
		r.live = make(map[string]*S)
	}
	r.live[name] = s
}

// Return is a rank of st returning at now, whether the step succeeded or
// failed: it raises the step's Elapsed to now and hands back its result.
// The last rank's return forgets the step.
//
//repro:hotpath
func (r *Steps[S]) Return(st *Step, now simkernel.Time) *StepResult {
	st.Res.Elapsed = max(st.Res.Elapsed, st.Since(now))
	st.returned++
	if st.returned == st.ranks {
		delete(r.live, st.name)
	}
	return &st.Res
}

// Step is what every method's step state shares: the step's result, its
// setup barrier and failure, and the start of its timed region.
type Step struct {
	Res StepResult

	name     string
	ranks    int
	returned int
	setup    *simkernel.WaitGroup // one report per rank
	err      error                // the step's failure: wraps the first setup error
	started  bool
	t0       simkernel.Time
}

// SetupDone is a rank reporting its untimed setup finished, with its error
// or nil; every rank reports once. The first error fails the step on every
// rank.
func (s *Step) SetupDone(err error) {
	if err != nil && s.err == nil {
		s.err = setupFailed(s.name, err)
	}
	s.setup.Done()
}

// setupFailed builds a step's failure off the hot path.
func setupFailed(name string, err error) error {
	return fmt.Errorf("step %s: setup failed: %w", name, err)
}

// WaitSetup waits at the setup barrier, recall style like WaitGroup.WaitCont.
// Once every report is in it returns true and the step's failure, after
// which a failed rank writes nothing. The first rank through starts the
// timed region, reading fs's metadata queue peak so far.
func (s *Step) WaitSetup(c *simkernel.ContProc, fs *pfs.FileSystem) (bool, error) {
	if !s.setup.WaitCont(c) {
		return false, nil
	}
	if !s.started {
		s.started, s.t0 = true, c.Now()
		s.Res.MDSOpenQueuePeak = fs.MDS.Stats.MaxQueue
	}
	return true, s.err
}

// Since is the time in seconds from the timed start to now.
func (s *Step) Since(now simkernel.Time) float64 { return (now - s.t0).Seconds() }

// Wrote records rank's writer time: its write stopped blocking at now.
func (s *Step) Wrote(rank int, now simkernel.Time) { s.Res.WriterTimes[rank] = s.Since(now) }

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

// Outcome is one rank's outcome of a step, which each method's StepCont
// embeds for its Result. Every rank, failed or not, leaves its step
// through Steps.Return, which sets Res; Err is the rank's error, if any.
type Outcome struct {
	Res *StepResult
	Err error
}

// Result implements StepCont.
//
//repro:hotpath
func (o *Outcome) Result() (*StepResult, error) { return o.Res, o.Err }

// Targets resolves a method's storage-target list *osts on fs. An empty
// list means all of fs's targets, numbered into a run carved from the
// kernel's Slab[int] (valid until its next Reset); otherwise each must be
// in range, and the error is prefixed with the method's name.
func Targets(prefix string, osts *[]int, fs *pfs.FileSystem) error {
	n := len(fs.OSTs)
	for _, o := range *osts {
		if o < 0 || o >= n {
			return fmt.Errorf("%s: OST %d out of range", prefix, o)
		}
	}
	if len(*osts) > 0 {
		return nil
	}
	*osts = simkernel.Local[simkernel.Slab[int]](fs.K).Take(n)
	for i := range *osts {
		(*osts)[i] = i
	}
	return nil
}
