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
	create  pfs.CreateOp
	write   pfs.WriteOp
	recv    mpisim.RecvOp
	closeOp pfs.CloseOp
}

// StepRank drives the body. The barrier runs through rank 0's mailbox:
// every other rank reports its arrival and waits for the release, which
// rank 0 sends once all have arrived.
func (m *fileRank) StepRank(r *Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, m.name, pfsLayoutSingle(r.Rank()))
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if m.created != nil && !m.created(m.create.Err()) {
				return true
			}
			m.f = m.create.File()
			m.write.BeginWrite(m.f, 0, m.bytes)
			m.pc = 2
		case 2:
			if !m.write.Step(c) {
				return false
			}
			if m.wrote != nil {
				m.wrote(m.write.Err())
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
			m.closeOp.BeginClose(m.f)
			m.pc = 5
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			if m.closed != nil {
				m.closed()
			}
			return true
		}
	}
}
