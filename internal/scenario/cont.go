package scenario

import (
	"time"

	"repro/adios"
	"repro/cluster"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The scenario executors' rank bodies, as continuation machines launched
// by exec.go. An application's output step, in a campaign or in a job-mix
// phase, is one adios.WriteStep.

// jobAppCont is the app job's body: per phase, wait for the phase clock,
// then run one collective output step. It keeps its job's phase clock and
// step names on the point's jobCfg, and the IO, data and shared outcome on
// its step, so a rank costs 80 bytes.
type jobAppCont struct {
	pc, ph int
	job    *jobCfg
	step   adios.WriteStep
}

func (m *jobAppCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.ph >= m.job.phases {
				return true
			}
			m.step = adios.WriteStep{IO: m.step.IO, Step: m.job.names[m.ph], PerRank: m.step.PerRank, Out: m.step.Out}
			m.pc = 1
			if c.SleepUntil(simkernel.FromSeconds(m.job.start + float64(m.ph)*m.job.period)) {
				return false
			}
		default:
			if !m.step.StepRank(r, c) {
				return false
			}
			if m.step.Out.Err != nil {
				return true
			}
			m.ph++
			m.pc = 0
		}
	}
}

// jobMLReadCont is the job-mix training-read body: create the pre-existing
// dataset shard, then per phase wait for the clock and read it.
type jobMLReadCont struct {
	pc, ph int
	phases int
	start  float64
	period float64
	fs     *pfs.FileSystem
	name   string // the rank's shard, the point's (see nameJobs)
	ost    int
	bytes  int64
	errp   *error
	f      *pfs.File
	op     pfs.FileOp
}

func (m *jobMLReadCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.op.BeginCreate(m.fs, m.name, pfs.Layout{OSTs: []int{m.ost}})
			m.pc = 1
			if !c.Call(&m.op) {
				return false
			}
		case 1:
			if err := m.op.Err(); err != nil {
				if *m.errp == nil {
					*m.errp = err
				}
				return true
			}
			m.f = m.op.File()
			m.pc = 2
		case 2:
			if m.ph >= m.phases {
				m.op.BeginClose(m.f)
				m.pc = 5
				if !c.Call(&m.op) {
					return false
				}
				continue
			}
			m.pc = 3
			if c.SleepUntil(simkernel.FromSeconds(m.start + float64(m.ph)*m.period)) {
				return false
			}
		case 3:
			m.op.BeginRead(m.f, 0, m.bytes)
			m.pc = 4
			if !c.Call(&m.op) {
				return false
			}
		case 4:
			m.ph++
			m.pc = 2
		default:
			return true
		}
	}
}

// jobMDTestCont is the job-mix metadata-stress body: per phase, wait for
// the clock, then create/write/close a burst of small files.
type jobMDTestCont struct {
	pc, ph, fi int
	phases     int
	files      int
	start      float64
	period     float64
	fs         *pfs.FileSystem
	names      []string // the rank's burst files, phase-major: phase ph, file fi at ph*files+fi
	rank       int
	numOSTs    int
	bytes      int64
	errp       *error
	f          *pfs.File
	op         pfs.FileOp
}

func (m *jobMDTestCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.ph >= m.phases {
				return true
			}
			m.fi = 0
			m.pc = 1
			if c.SleepUntil(simkernel.FromSeconds(m.start + float64(m.ph)*m.period)) {
				return false
			}
		case 1:
			if m.fi >= m.files {
				m.ph++
				m.pc = 0
				continue
			}
			m.op.BeginCreate(m.fs, m.names[m.ph*m.files+m.fi],
				pfs.Layout{OSTs: []int{(m.rank + m.fi) % m.numOSTs}})
			m.pc = 2
			if !c.Call(&m.op) {
				return false
			}
		case 2:
			if err := m.op.Err(); err != nil {
				if *m.errp == nil {
					*m.errp = err
				}
				return true
			}
			m.f = m.op.File()
			m.op.BeginWrite(m.f, 0, m.bytes)
			m.pc = 3
			if !c.Call(&m.op) {
				return false
			}
		case 3:
			m.op.BeginClose(m.f)
			m.pc = 4
			if !c.Call(&m.op) {
				return false
			}
		default:
			m.fi++
			m.pc = 1
		}
	}
}

// stormOpener is the open-storm body: an optional stagger delay, one
// create, one close, then the join. A failed create skips the close.
type stormOpener struct {
	pc      int
	fs      *pfs.FileSystem
	name    string // the point's (see compileJobs)
	ost     int
	stagger bool
	delay   time.Duration
	wg      *simkernel.WaitGroup
	errp    *error
	op      pfs.FileOp
}

func (m *stormOpener) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.pc = 1
			// With stagger enabled even the zero-delay opener schedules a
			// sleep event.
			if m.stagger {
				c.Sleep(m.delay)
				return false
			}
		case 1:
			m.op.BeginCreate(m.fs, m.name, pfs.Layout{OSTs: []int{m.ost}})
			m.pc = 2
			if !c.Call(&m.op) {
				return false
			}
		case 2:
			m.pc = 3
			if err := m.op.Err(); err != nil {
				if *m.errp == nil {
					*m.errp = err
				}
				continue
			}
			m.op.BeginClose(m.op.File())
			if !c.Call(&m.op) {
				return false
			}
		default:
			m.wg.Done()
			return true
		}
	}
}
