// Package posix implements the simplest ADIOS transport: one file per
// process, POSIX-style, each file striped to a single storage target chosen
// round-robin. It is the organisation IOR uses in the paper's Section II
// measurements and serves as a second baseline: free of shared-file limits
// but entirely unmanaged — every rank writes immediately, so a popular
// target serves all its writers at once and slow targets stall their ranks.
package posix

import (
	"fmt"

	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Config tunes the POSIX transport.
type Config struct {
	// OSTs are the storage targets to spread files across; empty means all.
	OSTs []int
}

// Method is the POSIX transport bound to a world and file system.
type Method struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	machines *simkernel.Slab[stepCont] // the kernel's, for the per-rank carve

	steps iomethod.Steps[stepState]
}

type stepState struct {
	iomethod.Step
	names []string // per rank, its file's name; the kernel's fileNames, read-only
}

// fileNames is each kernel's cache of POSIX file names by step name: rank r
// of step s writes "s.r%06d.bp", which depends only on s and r, so a name
// is built once per kernel rather than once per replica.
type fileNames struct {
	byStep map[string][]string //repro:reset-skip a name depends only on the step name and the rank, so the cache outlives replicas
}

// Reset keeps every name: see byStep.
func (n *fileNames) Reset() {}

// get returns the file names of ranks 0..ranks-1 of step, naming only the
// ranks no earlier step of that name has named.
func (n *fileNames) get(step string, ranks int) []string {
	names := n.byStep[step]
	if len(names) < ranks {
		for r := len(names); r < ranks; r++ {
			names = append(names, fmt.Sprintf("%s.r%06d.bp", step, r))
		}
		if n.byStep == nil {
			n.byStep = make(map[string][]string)
		}
		n.byStep[step] = names
	}
	return names[:ranks:ranks]
}

// New builds the POSIX method. Its step state is carved from the world's
// kernel, one slab per type (simkernel.Local[simkernel.Slab[T]]), so what
// its steps return is valid until the kernel's next Reset.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Method, error) {
	if err := iomethod.Targets("posix", &cfg.OSTs, fs); err != nil {
		return nil, err
	}
	return &Method{w: w, fs: fs, cfg: cfg, machines: simkernel.Local[simkernel.Slab[stepCont]](w.Kernel())}, nil
}

// Name implements iomethod.Method.
func (m *Method) Name() string { return "POSIX" }

func (m *Method) step(stepName string) *stepState {
	if st := m.steps.Get(stepName); st != nil {
		return st
	}
	W := m.w.Size()
	k := m.w.Kernel()
	st := simkernel.Local[simkernel.Slab[stepState]](k).New()
	*st = stepState{names: simkernel.Local[fileNames](k).get(stepName, W)}
	m.steps.Open(k, st, &st.Step, stepName, W, st.names)
	return st
}

// stepCont is one rank's POSIX output step in flight: create its own file
// (untimed), barrier, then write + local index + flush + close (timed).
type stepCont struct {
	m    *Method
	st   *stepState
	rank int
	data iomethod.RankData

	pc    int
	f     *pfs.File
	total int64
	enc   int64

	op pfs.FileOp

	iomethod.Outcome
}

// BeginStepCont implements iomethod.Method. The machine is carved with
// Reuse and re-armed whole except for its op, whose chunk list is kept as
// scratch.
func (m *Method) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := m.step(stepName)
	s := m.machines.Reuse()
	*s = stepCont{m: m, st: st, rank: r.Rank(), data: data, op: s.op}
	return s
}

// Step drives the rank's step. A lost write or index append is counted in
// WriteFailures and returned as the rank's error: POSIX has no recovery, but
// the rank still closes and completes the step's bookkeeping so the other
// ranks finish. A block whose data write succeeded counts in TotalBytes and
// is in the step's index even if its index append is lost. A failed create
// fails the step: every rank skips its write and returns the step's error.
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	m, st := s.m, s.st
	for {
		switch s.pc {
		case 0:
			t := s.rank % len(m.cfg.OSTs)
			s.op.BeginCreate(m.fs, st.names[s.rank], pfs.Layout{OSTs: m.cfg.OSTs[t : t+1 : t+1]})
			s.pc = 1
			if !c.Call(&s.op) {
				return false
			}
		case 1:
			if s.Err = s.op.Err(); s.Err == nil {
				s.f = s.op.File()
				st.Res.AddFile(s.rank)
			}
			st.SetupDone(s.Err)
			s.pc = 2
		case 2:
			ok, err := st.WaitSetup(c, m.fs)
			if !ok {
				return false
			}
			if s.Err = err; err != nil {
				s.pc = 5
				continue
			}
			s.total = s.data.TotalBytes()
			s.op.BeginWrite(s.f, 0, s.total)
			s.pc = 3
			if !c.Call(&s.op) {
				return false
			}
		case 3:
			if s.Err = s.op.Err(); s.Err != nil {
				st.Res.WriteFailures++
				s.op.BeginClose(s.f)
				s.pc = 5
			} else {
				st.Res.TotalBytes += float64(s.total)
				st.Res.AddBlock(s.rank, s.rank, 0, s.data)
				s.enc = st.Res.LocalIndexLen(s.rank)
				s.op.BeginCommit(s.f, s.enc)
				s.pc = 4
			}
			if !c.Call(&s.op) {
				return false
			}
		case 4:
			if s.Err = s.op.Err(); s.Err == nil {
				st.Res.IndexBytes += float64(s.enc)
			} else {
				st.Res.WriteFailures++
			}
			s.pc = 5
		default:
			st.Wrote(s.rank, c.Now())
			s.Res = m.steps.Return(&st.Step, c.Now())
			return true
		}
	}
}
