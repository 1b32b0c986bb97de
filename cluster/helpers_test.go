package cluster

import (
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// pfsLayoutSingle pins a test file to one storage target.
func pfsLayoutSingle(i int) pfs.Layout {
	return pfs.Layout{OSTs: []int{i % 4}}
}

// Message tags of fileRank's barrier.
const (
	tagArrive = iota + 1
	tagRelease
)

// fileRank is a test rank body: create a file on the rank's target, write
// to it, optionally meet every other rank at a barrier, then close it. The
// hooks observe each stage; created reports whether the rank goes on.
type fileRank struct {
	fs      *pfs.FileSystem
	name    string
	bytes   int64
	barrier bool
	created func(err error) bool
	wrote   func(err error)
	closed  func()

	pc      int
	f       *pfs.File
	arrived int
	op      pfs.FileOp
	recv    mpisim.RecvOp
}

// StepRank drives the body. The barrier runs through rank 0's mailbox:
// every other rank reports its arrival and waits for the release, which
// rank 0 sends once all have arrived.
func (m *fileRank) StepRank(r *Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.op.BeginCreate(m.fs, m.name, pfsLayoutSingle(r.Rank()))
			m.pc = 1
			if !c.Call(&m.op) {
				return false
			}
		case 1:
			if m.created != nil && !m.created(m.op.Err()) {
				return true
			}
			m.f = m.op.File()
			m.op.BeginWrite(m.f, 0, m.bytes)
			m.pc = 2
			if !c.Call(&m.op) {
				return false
			}
		case 2:
			if m.wrote != nil {
				m.wrote(m.op.Err())
			}
			m.pc = 4
			if !m.barrier || r.Size() == 1 {
				continue
			}
			m.pc = 3
			if r.Rank() != 0 {
				r.Send(0, tagArrive, nil)
				if !r.RecvCont(&m.recv, c, 0, tagRelease) {
					return false
				}
			}
		case 3:
			if r.Rank() == 0 {
				if m.arrived < r.Size()-1 {
					if !r.RecvCont(&m.recv, c, mpisim.AnySource, tagArrive) {
						m.arrived++
						return false
					}
					m.arrived++
					continue
				}
				for to := 1; to < r.Size(); to++ {
					r.Send(to, tagRelease, nil)
				}
			}
			m.pc = 4
		case 4:
			m.op.BeginClose(m.f)
			m.pc = 5
			if !c.Call(&m.op) {
				return false
			}
		default:
			if m.closed != nil {
				m.closed()
			}
			return true
		}
	}
}
