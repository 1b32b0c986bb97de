package ior

import (
	"fmt"
	"strconv"

	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The IOR writer body as a continuation machine.

// iorShared carries the shared-file handle from writer 0 to the rest of a
// SharedFile-mode run. Writer 0 creates the file before its ready.Done();
// the start signal fires only after every writer is ready, so the handle is
// visible to all writers by the time the timed region begins.
type iorShared struct {
	f *pfs.File
}

// iorWriter is one writer's state machine: create (untimed), barrier, then
// the timed write/flush region, and the collective bookkeeping. A failed
// create fails the run: every writer passes the barrier, skips its write
// and leaves.
type iorWriter struct {
	pc  int
	run *Run
	i   int

	fileName string
	layout   pfs.Layout
	doCreate bool
	offset   int64
	shared   *iorShared

	ready *simkernel.WaitGroup
	start *simkernel.Signal

	f  *pfs.File
	t0 simkernel.Time

	op pfs.FileOp
}

func (m *iorWriter) Step(c *simkernel.ContProc) bool {
	cfg := &m.run.cfg
	for {
		switch m.pc {
		case 0:
			if m.doCreate {
				m.op.BeginCreate(m.run.fs, m.fileName, m.layout)
				m.pc = 1
				if !c.Call(&m.op) {
					return false
				}
			} else {
				m.pc = 2
			}
		case 1:
			if err := m.op.Err(); err != nil {
				if m.run.err == nil {
					m.run.err = createFailed(m.fileName, err)
				}
			} else if cfg.Mode == SharedFile {
				m.shared.f = m.op.File()
			} else {
				m.f = m.op.File()
			}
			m.pc = 2
		case 2:
			m.ready.Done()
			m.pc = 3
		case 3:
			if !m.start.WaitCont(c) {
				return false
			}
			if m.run.err != nil {
				m.pc = 7
				continue
			}
			if cfg.Mode == SharedFile {
				m.f = m.shared.f
			}
			m.t0 = c.Now()
			m.op.BeginWrite(m.f, m.offset, int64(cfg.BytesPerWriter))
			m.pc = 4
			if !c.Call(&m.op) {
				return false
			}
		case 4:
			if m.op.Err() != nil {
				// Target down: this writer's bytes are lost; it still
				// closes and joins so the run completes.
				m.run.result.FailedWriters++
				m.pc = 6
			} else if cfg.Flush {
				m.op.BeginFlush(m.f)
				m.pc = 5
				if !c.Call(&m.op) {
					return false
				}
			} else {
				m.run.result.TotalBytes += cfg.BytesPerWriter
				m.pc = 6
			}
		case 5:
			m.run.result.TotalBytes += cfg.BytesPerWriter
			m.pc = 6
		case 6:
			m.run.result.WriterTimes[m.i] = (c.Now() - m.t0).Seconds()
			m.op.BeginClose(m.f)
			m.pc = 7
			if !c.Call(&m.op) {
				return false
			}
		default:
			m.run.done.Done()
			return true
		}
	}
}

// createFailed builds a run's create failure off the hot path.
func createFailed(name string, err error) error {
	return fmt.Errorf("ior: create %s: %w", name, err)
}

// launch spawns one writer per cfg.Writers from the slab. File names and
// layouts are resolved here, off the hot path: in FilePerProcess mode
// writer i owns a file pinned to osts[i % len(osts)], a one-element
// sub-slice of the run's list. A recycled writer is re-armed field by
// field, every field its Step reads, so its op keeps its chunk list as
// scratch and the re-arm copies no whole record.
func (ws *writers) launch(run *Run, osts []int, ready *simkernel.WaitGroup, start *simkernel.Signal) {
	cfg := run.cfg
	shared := &iorShared{}
	var names []string
	if cfg.Mode == FilePerProcess {
		names = ws.fileNames(cfg.Job, cfg.Writers)
	}
	for i := 0; i < cfg.Writers; i++ {
		w := ws.slab.Reuse()
		w.pc, w.run, w.i = 0, run, i
		w.fileName, w.layout, w.doCreate, w.offset = "", pfs.Layout{}, false, 0
		w.shared, w.ready, w.start = shared, ready, start
		w.f, w.t0 = nil, 0
		switch cfg.Mode {
		case FilePerProcess:
			j := i % len(osts)
			w.doCreate = true
			w.fileName = names[i]
			w.layout = pfs.Layout{OSTs: osts[j : j+1 : j+1]}
		case SharedFile:
			if i == 0 {
				w.doCreate = true
				w.fileName = "ior" + strconv.Itoa(cfg.Job) + ".shared"
				w.layout = pfs.Layout{OSTs: osts}
			}
			w.offset = int64(i) * int64(cfg.BytesPerWriter)
		}
		run.fs.K.SpawnContJob(cfg.Job, w)
	}
}

// fileNames returns the FilePerProcess file names of writers 0..n-1 of
// job, naming only the writers no earlier launch of job has named.
func (ws *writers) fileNames(job, n int) []string {
	if ws.names == nil {
		ws.names = make(map[int][]string)
	}
	names := ws.names[job]
	for i := len(names); i < n; i++ {
		names = append(names, fileName(job, i))
	}
	ws.names[job] = names
	return names
}

// fileName is writer i's FilePerProcess file, fmt's "ior%d.%06d" of job
// and i built without fmt.
func fileName(job, i int) string {
	var buf [20]byte
	d := strconv.AppendInt(buf[:0], int64(i), 10)
	return "ior" + strconv.Itoa(job) + "." + "000000"[min(len(d), 6):] + string(d)
}
