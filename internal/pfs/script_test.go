package pfs

import "repro/internal/simkernel"

// script is a test process written as a list of steps: each is a machine
// driven to completion in turn, so a step that yields parks the process
// until its wakeup. The client-op steps below arm their op when the script
// reaches them, and take the file handle as **File because an earlier step
// fills it in.
type script []simkernel.Cont

func (s *script) Step(c *simkernel.ContProc) bool {
	for len(*s) > 0 {
		if stop, ok := (*s)[0].(stopIf); ok && stop() {
			*s = nil
			return true
		}
		if !(*s)[0].Step(c) {
			return false
		}
		*s = (*s)[1:]
	}
	return true
}

// run builds a script process body from its steps.
func run(steps ...simkernel.Cont) *script {
	s := script(steps)
	return &s
}

// stepFunc adapts a function to a step.
type stepFunc func(c *simkernel.ContProc) bool

func (f stepFunc) Step(c *simkernel.ContProc) bool { return f(c) }

// do is a step that runs fn inline.
func do(fn func()) simkernel.Cont {
	return stepFunc(func(*simkernel.ContProc) bool { fn(); return true })
}

// stopIf is a step that ends the script early when it reports true.
type stopIf func() bool

func (stopIf) Step(*simkernel.ContProc) bool { return true }

// drive is a step that arms a machine when reached, runs it to completion
// with ContProc.Call, then runs then.
func drive(arm func() simkernel.Cont, then func()) simkernel.Cont {
	var m simkernel.Cont
	return stepFunc(func(c *simkernel.ContProc) bool {
		if m == nil {
			m = arm()
			if !c.Call(m) {
				return false
			}
		}
		then()
		return true
	})
}

// setErr stores err in *dst when dst is non-nil.
func setErr(dst *error, err error) {
	if dst != nil {
		*dst = err
	}
}

func create(fs *FileSystem, name string, l Layout, f **File, err *error) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { op.BeginCreate(fs, name, l); return op },
		func() { *f = op.File(); setErr(err, op.Err()) })
}

func open(fs *FileSystem, name string, f **File, err *error) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { op.BeginOpen(fs, name); return op },
		func() { *f = op.File(); setErr(err, op.Err()) })
}

func writeAt(f **File, offset, length int64, err *error) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { op.BeginWrite(*f, offset, length); return op },
		func() { setErr(err, op.Err()) })
}

// appendTo writes length bytes at the handle's end, reporting the offset.
func appendTo(f **File, length int64, off *int64, err *error) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { *off = (*f).Size(); op.BeginWrite(*f, *off, length); return op },
		func() { setErr(err, op.Err()) })
}

func flush(f **File) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { op.BeginFlush(*f); return op }, func() {})
}

func closeFile(f **File) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { op.BeginClose(*f); return op }, func() {})
}

func readAt(f **File, offset, length int64, err *error) simkernel.Cont {
	op := new(FileOp)
	return drive(func() simkernel.Cont { op.BeginRead(*f, offset, length); return op },
		func() { setErr(err, op.Err()) })
}

func ostWrite(o *OST, bytes float64, err *error) simkernel.Cont {
	op := new(OSTWriteOp)
	return drive(func() simkernel.Cont { op.Begin(o, bytes); return op },
		func() { setErr(err, op.Err()) })
}

// ostFlushWait is one target's flush wait as a machine: the flush walk
// (flushHop.start) over a hop whose snapshot holds the target alone. It
// sets the target's live bit first, so the target is visited even when
// idle, as every target was before the file system kept a live set. The
// one-target set is kept across waits and each wait's hop comes from the
// free list, so a loop of waits allocates nothing.
type ostFlushWait struct {
	fs     *FileSystem
	o      *OST
	target []uint64
	parked bool
}

func (w *ostFlushWait) Step(c *simkernel.ContProc) bool {
	if w.parked {
		w.parked = false
		return true
	}
	if w.target == nil {
		w.target = make([]uint64, len(w.fs.live))
	}
	word, bit := w.o.ID>>6, uint64(1)<<(w.o.ID&63)
	clear(w.target)
	w.target[word] = bit
	w.fs.live[word] |= bit
	if w.fs.hop(w.target).start(c.Proc()) {
		return true
	}
	w.parked = true
	c.Pause()
	return false
}

func ostFlush(fs *FileSystem, o *OST) simkernel.Cont {
	return drive(func() simkernel.Cont { return &ostFlushWait{fs: fs, o: o} }, func() {})
}

func metaOp(m *MDS) simkernel.Cont {
	op := new(MDSOp)
	return drive(func() simkernel.Cont { op.Begin(m); return op }, func() {})
}
