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

// drive is a step that arms a machine when reached, drives it to
// completion, then runs then.
func drive(arm func() simkernel.Cont, then func()) simkernel.Cont {
	var m simkernel.Cont
	return stepFunc(func(c *simkernel.ContProc) bool {
		if m == nil {
			m = arm()
		}
		if !m.Step(c) {
			return false
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
	op := new(CreateOp)
	return drive(func() simkernel.Cont { op.BeginCreate(fs, name, l); return op },
		func() { *f = op.File(); setErr(err, op.Err()) })
}

func open(fs *FileSystem, name string, f **File, err *error) simkernel.Cont {
	op := new(OpenOp)
	return drive(func() simkernel.Cont { op.BeginOpen(fs, name); return op },
		func() { *f = op.File(); setErr(err, op.Err()) })
}

func writeAt(f **File, offset, length int64, err *error) simkernel.Cont {
	op := new(WriteOp)
	return drive(func() simkernel.Cont { op.BeginWrite(*f, offset, length); return op },
		func() { setErr(err, op.Err()) })
}

func appendTo(f **File, length int64, off *int64, err *error) simkernel.Cont {
	op := new(WriteOp)
	return drive(func() simkernel.Cont { *off = op.BeginAppend(*f, length); return op },
		func() { setErr(err, op.Err()) })
}

func flush(f **File) simkernel.Cont {
	op := new(FlushOp)
	return drive(func() simkernel.Cont { op.BeginFlush(*f); return op }, func() {})
}

func closeFile(f **File) simkernel.Cont {
	op := new(CloseOp)
	return drive(func() simkernel.Cont { op.BeginClose(*f); return op }, func() {})
}

func readAt(f **File, offset, length int64, err *error) simkernel.Cont {
	op := new(ReadOp)
	return drive(func() simkernel.Cont { op.BeginRead(*f, offset, length); return op },
		func() { setErr(err, op.Err()) })
}

func ostWrite(o *OST, bytes float64, err *error) simkernel.Cont {
	op := new(OSTWriteOp)
	return drive(func() simkernel.Cont { op.Begin(o, bytes); return op },
		func() { setErr(err, op.Err()) })
}

func ostFlush(o *OST) simkernel.Cont {
	op := new(ostFlushOp)
	return drive(func() simkernel.Cont { op.begin(o); return op }, func() {})
}

func metaOp(m *MDS) simkernel.Cont {
	op := new(MDSOp)
	return drive(func() simkernel.Cont { op.Begin(m); return op }, func() {})
}
