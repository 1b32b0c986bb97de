package pfs

import (
	"fmt"
	"math/bits"

	"repro/internal/simkernel"
)

// The file system's client operations as state machines. Each op is armed
// with a Begin* call and driven with repeated Step calls: Step returns true
// when the operation has completed, or arranges a wakeup, marks the process
// parked, and returns false — the body must then yield with its program
// counter advanced past the op (advance style; see simkernel/sync.go),
// because wakeups re-enter Step to continue the same operation, never to
// restart it. These machines are the file system's whole client API.
//
// The op values are designed for reuse: embed one per client, arm it with
// Begin*, and its scratch (chunk lists, OST lists) is recycled across
// operations.

// mdsOp is the program counter of one metadata operation in flight. The
// MDS drives it (opCont), so the client ops that embed one reach the server
// through their file system instead of carrying another pointer.
type mdsOp struct {
	pc int
}

// opCont drives one metadata operation: queueing at the service resource,
// then the lognormal service time. The service draw happens after the slot
// grant — queue order determines draw order.
//
//repro:hotpath
func (m *MDS) opCont(s *mdsOp, c *simkernel.ContProc) bool {
	for {
		switch s.pc {
		case 0:
			m.accountOp(c.Job())
			s.pc = 1
			if m.stallUntil > c.Now() {
				m.Stats.StallSeconds += (m.stallUntil - c.Now()).Seconds()
				c.SleepUntil(m.stallUntil)
				return false
			}
		case 1:
			s.pc = 2
			if !m.res.AcquireCont(c) {
				return false
			}
		case 2:
			svc := m.src.LognormalMeanCV(m.mean, m.cv)
			m.Stats.OpsServed++
			m.Stats.TotalService += svc
			if q := m.res.QueueLen(); q > m.Stats.MaxQueue {
				m.Stats.MaxQueue = q
			}
			s.pc = 3
			c.SleepSeconds(svc)
			return false
		default:
			m.res.Release()
			s.pc = 0
			return true
		}
	}
}

// MDSOp is one bare metadata operation (open, create, stat, close) in
// flight: queueing at the server plus service time.
type MDSOp struct {
	m *MDS
	s mdsOp
}

// Begin arms the op against metadata server m; drive it with Step until
// true.
func (op *MDSOp) Begin(m *MDS) {
	op.m = m
	op.s = mdsOp{}
}

// Step drives the metadata operation.
//
//repro:hotpath
func (op *MDSOp) Step(c *simkernel.ContProc) bool { return op.m.opCont(&op.s, c) }

// OSTWriteOp is one OST write in flight: the fixed per-operation latency,
// then ingest until the last byte has been accepted by the OST (cache or
// disk) — or, against a target that is Dead when the request arrives, the
// configured DeadTimeout followed by ErrTargetDown in Err.
type OSTWriteOp struct {
	pc    int
	o     *OST
	bytes float64
	err   error
}

// Begin arms the op for a write of bytes to target o; drive it with Step
// until true.
func (s *OSTWriteOp) Begin(o *OST, bytes float64) {
	s.pc = 0
	s.o = o
	s.bytes = bytes
	s.err = nil
}

// Step drives the write.
//
//repro:hotpath
func (s *OSTWriteOp) Step(c *simkernel.ContProc) bool {
	for {
		switch s.pc {
		case 0:
			s.pc = 1
			if s.o.cfg.WriteLatency > 0 {
				c.Sleep(s.o.cfg.WriteLatency)
				return false
			}
		case 1:
			if s.o.health == Dead {
				s.pc = 3
				c.SleepSeconds(s.o.cfg.DeadTimeout)
				return false
			}
			if s.bytes <= 0 {
				s.pc = 0
				return true
			}
			s.o.accountWrite(c.Job(), s.bytes)
			s.o.StartWrite(s.bytes, c.Waker())
			s.pc = 2
			c.Pause()
			return false
		case 2:
			s.pc = 0
			return true
		default:
			s.o.Stats.WritesFailed++
			s.err = s.o.downErr
			s.pc = 0
			return true
		}
	}
}

// Err returns the write error, if any; valid after Step returned true.
func (s *OSTWriteOp) Err() error { return s.err }

// ostFlushOp is one OST flush in flight: wait until every byte ingested by
// the OST before the flush began has drained to disk (the explicit flush
// the paper inserts before close).
type ostFlushOp struct {
	pc int
	o  *OST
}

func (s *ostFlushOp) begin(o *OST) {
	s.pc = 0
	s.o = o
}

//repro:hotpath
func (s *ostFlushOp) Step(c *simkernel.ContProc) bool {
	switch s.pc {
	case 0:
		o := s.o
		o.advance()
		if o.cacheLevel <= completionEps {
			return true
		}
		o.waiters.Push(flushWaiter{watermark: o.ingestedTotal, wake: c.Waker()})
		o.recompute()
		s.pc = 1
		c.Pause()
		return false
	default:
		s.pc = 0
		return true
	}
}

// CreateOp is a metadata create in flight (queueing at the MDS). Creating
// an existing name truncates it, like O_TRUNC. After Step returns true,
// File/Err hold the result.
type CreateOp struct {
	fs     *FileSystem
	name   string
	osts   []int
	stripe int64
	mds    mdsOp
	file   *File
	err    error
}

// BeginCreate arms the op; drive it with Step until true.
func (op *CreateOp) BeginCreate(fs *FileSystem, name string, layout Layout) {
	op.fs = fs
	op.name = name
	op.file = nil
	op.err = nil
	op.layout(layout)
}

// layout resolves the layout at arm time: before the MDS queueing,
// consuming the round-robin allocation cursor in call order.
func (op *CreateOp) layout(l Layout) {
	op.osts, op.stripe, op.err = op.fs.resolveLayout(l)
}

// Step drives the create. On a layout error it completes immediately with
// Err set and no MDS traffic.
//
//repro:hotpath
func (op *CreateOp) Step(c *simkernel.ContProc) bool {
	if op.err != nil {
		return true
	}
	if !op.fs.MDS.opCont(&op.mds, c) {
		return false
	}
	f := &File{
		fs:      op.fs,
		osts:    op.osts,
		stripe:  op.stripe,
		touched: make([]uint64, (len(op.fs.OSTs)+63)/64),
	}
	f.inode = f
	op.fs.files[op.name] = f
	op.file = f
	return true
}

// File returns the created handle (nil on error); valid after Step
// returned true.
func (op *CreateOp) File() *File { return op.file }

// Err returns the create error, if any; valid after Step returned true.
func (op *CreateOp) Err() error { return op.err }

// OpenOp is a metadata open of an existing file in flight.
type OpenOp struct {
	fs    *FileSystem
	name  string
	found *File
	mds   mdsOp
	file  *File
	err   error
}

// BeginOpen arms the op; drive it with Step until true.
func (op *OpenOp) BeginOpen(fs *FileSystem, name string) {
	op.fs = fs
	op.name = name
	op.found = fs.files[name]
	op.file = nil
	op.err = nil
}

// Step drives the open. Failed lookups still cost the MDS; the handle copy
// is taken after the metadata op completes.
//
//repro:hotpath
func (op *OpenOp) Step(c *simkernel.ContProc) bool {
	if !op.fs.MDS.opCont(&op.mds, c) {
		return false
	}
	if op.found == nil {
		op.err = noSuchFile(op.name)
		return true
	}
	h := *op.found
	h.closed = false
	op.file = &h
	return true
}

// noSuchFile builds the open-failure error off the hot path.
func noSuchFile(name string) error {
	return fmt.Errorf("pfs: no such file %q", name)
}

// File returns the opened handle (nil on error); valid after Step
// returned true.
func (op *OpenOp) File() *File { return op.file }

// Err returns the open error, if any; valid after Step returned true.
func (op *OpenOp) Err() error { return op.err }

// WriteOp is a striped write in flight, complete once every byte has been
// accepted by the storage targets. Per-OST chunks are issued sequentially,
// each a latency-plus-ingest machine, modelling a single POSIX/MPI-IO
// client stream working through its file region. A chunk against a Dead
// target sets Err to ErrTargetDown after the configured timeout and
// abandons the remaining chunks; bytes already accepted by earlier chunks
// stay accepted, but the handle's size is not advanced.
type WriteOp struct {
	f       *File
	offset  int64
	length  int64
	chunks  []chunk
	i       int
	started bool
	w       OSTWriteOp
	err     error
}

// BeginWrite arms the op for a write of length bytes at offset; drive it
// with Step until true. The chunk list reuses the op's scratch.
func (op *WriteOp) BeginWrite(f *File, offset, length int64) {
	if f.closed {
		panic("pfs: write to closed file")
	}
	if length < 0 {
		panic("pfs: negative write length")
	}
	op.f = f
	op.offset = offset
	op.length = length
	op.chunks = f.appendChunks(op.chunks[:0], offset, length)
	op.i = 0
	op.started = false
	op.err = nil
}

// BeginAppend arms the op for a write at the handle's current end and
// returns the chosen offset (single-writer convenience; concurrent
// appenders should coordinate offsets themselves as the adaptive method
// does).
func (op *WriteOp) BeginAppend(f *File, length int64) int64 {
	off := f.size
	op.BeginWrite(f, off, length)
	return off
}

// Step drives the write: chunks issue sequentially (a single client
// stream), and the handle/inode sizes update after the last byte is
// accepted.
//
//repro:hotpath
func (op *WriteOp) Step(c *simkernel.ContProc) bool {
	f := op.f
	for op.i < len(op.chunks) {
		if !op.started {
			ch := op.chunks[op.i]
			f.touched[ch.ost/64] |= 1 << (ch.ost % 64)
			op.w.Begin(f.fs.OSTs[ch.ost], float64(ch.bytes))
			op.started = true
		}
		if !op.w.Step(c) {
			return false
		}
		if op.w.err != nil {
			op.err = op.w.err
			return true
		}
		op.started = false
		op.i++
	}
	if end := op.offset + op.length; end > f.size {
		f.size = end
	}
	if f.size > f.inode.size {
		f.inode.size = f.size
	}
	return true
}

// Err returns the write error, if any; valid after Step returned true.
func (op *WriteOp) Err() error { return op.err }

// FlushOp is a flush in flight, complete once all bytes the file's handles
// have written are on disk. Touched targets are waited on sequentially in
// ascending id order; draining proceeds in parallel across OSTs, so the
// total wait is governed by the slowest target.
type FlushOp struct {
	f       *File
	osts    []int
	i       int
	started bool
	w       ostFlushOp
}

// BeginFlush arms the op; drive it with Step until true. The OST list
// reuses the op's scratch, sized to the touched count up front so a fresh
// op allocates it once.
func (op *FlushOp) BeginFlush(f *File) {
	op.f = f
	n := 0
	for _, w := range f.touched {
		n += bits.OnesCount64(w)
	}
	if cap(op.osts) < n {
		op.osts = make([]int, 0, n)
	}
	op.osts = op.osts[:0]
	for i, w := range f.touched {
		for ; w != 0; w &= w - 1 {
			op.osts = append(op.osts, i*64+bits.TrailingZeros64(w))
		}
	}
	op.i = 0
	op.started = false
}

// Step drives the flush.
//
//repro:hotpath
func (op *FlushOp) Step(c *simkernel.ContProc) bool {
	for op.i < len(op.osts) {
		if !op.started {
			op.w.begin(op.f.fs.OSTs[op.osts[op.i]])
			op.started = true
		}
		if !op.w.Step(c) {
			return false
		}
		op.started = false
		op.i++
	}
	return true
}

// ReadOp is a read in flight. Reads bypass the write cache and share disk
// bandwidth with ongoing writes; the model is coarse since the paper's
// experiments are write-dominated: per chunk, the share-based rate is fixed
// at issue time — before the latency sleep — then latency plus transfer. A
// chunk against a Dead target hangs for the configured timeout and sets
// Err to ErrTargetDown; a Degraded or Rebuilding target serves the read at
// its health-reduced bandwidth.
type ReadOp struct {
	pc     int
	f      *File
	chunks []chunk
	i      int
	rate   float64
	err    error
}

// BeginRead arms the op; drive it with Step until true. The chunk list
// reuses the op's scratch.
func (op *ReadOp) BeginRead(f *File, offset, length int64) {
	op.pc = 0
	op.f = f
	op.chunks = f.appendChunks(op.chunks[:0], offset, length)
	op.i = 0
	op.err = nil
}

// Step drives the read.
//
//repro:hotpath
func (op *ReadOp) Step(c *simkernel.ContProc) bool {
	f := op.f
	for op.i < len(op.chunks) {
		ch := op.chunks[op.i]
		switch op.pc {
		case 0:
			o := f.fs.OSTs[ch.ost]
			o.accountRead(c.Job(), float64(ch.bytes))
			if o.health == Dead {
				op.pc = 3
				c.Sleep(f.fs.Cfg.WriteLatency)
				return false
			}
			streams := o.ActiveFlows() + o.ExternalStreams() + 1
			rate := f.fs.Cfg.DiskBW * f.fs.Cfg.DiskEff.Eval(streams) * o.SlowFactor() * o.HealthFactor() / float64(streams)
			if cap := f.fs.Cfg.ClientCap; rate > cap {
				rate = cap
			}
			op.rate = rate
			op.pc = 1
			c.Sleep(f.fs.Cfg.WriteLatency)
			return false
		case 1:
			op.pc = 2
			c.SleepSeconds(float64(ch.bytes) / op.rate)
			return false
		case 2:
			op.pc = 0
			op.i++
		case 3:
			op.pc = 4
			c.SleepSeconds(f.fs.Cfg.DeadTimeout)
			return false
		default:
			o := f.fs.OSTs[ch.ost]
			o.Stats.ReadsFailed++
			op.err = o.downErr
			op.pc = 0
			return true
		}
	}
	return true
}

// Err returns the read error, if any; valid after Step returned true.
func (op *ReadOp) Err() error { return op.err }

// CloseOp is a metadata close in flight. It flushes nothing (callers flush
// explicitly, as the paper's methodology does). A handle already closed
// completes inline with no MDS traffic.
type CloseOp struct {
	f    *File
	skip bool
	mds  mdsOp
}

// BeginClose arms the op; drive it with Step until true.
func (op *CloseOp) BeginClose(f *File) {
	op.f = f
	op.skip = f.closed
	if !op.skip {
		f.closed = true
	}
}

// Step drives the close.
//
//repro:hotpath
func (op *CloseOp) Step(c *simkernel.ContProc) bool {
	if op.skip {
		return true
	}
	return op.f.fs.MDS.opCont(&op.mds, c)
}
