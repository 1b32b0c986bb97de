package pfs

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/simkernel"
)

// The file system's client operations as state machines. A FileOp is armed
// with one of its Begin* calls, which picks the kind of operation (create,
// open, write, flush, read, close), and handed to simkernel.ContProc.Call
// with the body's program counter already advanced past it:
//
//	m.op.BeginFlush(f)
//	m.pc = next
//	if !c.Call(&m.op) {
//		return false
//	}
//
// and at the top of state next, read Err and File. If the op parks, the
// process parks inside it: the op's wakeups step the op alone, never the
// body and the records above it, and the body resumes at next once the op
// completes. FileOp is the file system's whole client API, and it drives
// no nested machine: the target-level steps beneath it (OST.writeCont,
// MDS.opCont) are server methods run on the op's own program counter. A
// flush that waits parks the process on a hop instead (flushHop, carved
// from the file system): the hop is the flush waiter of each target in
// turn, walks on to the next target when one drains, and resumes the
// process only when the walk is done, so the op runs at the flush's start
// and end alone. Hops that park on one target at one watermark with the
// same targets left form a cohort, which takes one waiter, walks on as
// one hop and resumes its processes in the order they parked. OSTWriteOp
// and MDSOp wrap one target write and one bare metadata operation as
// machines, for clients that drive a server directly.
//
// A client runs one operation at a time, so it embeds one FileOp and arms
// it again for each operation; the chunk list is scratch recycled across
// operations. The records a create or open hands out come from the file
// system's per-replica arenas; a flush's hop, which holds its snapshot of
// the touched set, comes from the file system's free list and goes back to
// it when the walk ends.

// opCont drives one metadata operation, whose program counter is *pc:
// queueing at the service resource, then the lognormal service time. The
// service draw happens after the slot grant — queue order determines draw
// order. The MDS drives it, so a FileOp reaches the server through its
// file system instead of carrying another pointer.
func (m *MDS) opCont(pc *int, c *simkernel.ContProc) bool {
	for {
		switch *pc {
		case 0:
			m.accountOp(c.Job())
			*pc = 1
			if m.stallUntil > c.Now() {
				m.Stats.StallSeconds += (m.stallUntil - c.Now()).Seconds()
				c.SleepUntil(m.stallUntil)
				return false
			}
		case 1:
			*pc = 2
			if !m.res.AcquireCont(c) {
				return false
			}
		case 2:
			svc := m.src.DrawLognormal(m.service)
			m.Stats.OpsServed++
			m.Stats.TotalService += svc
			if q := m.res.QueueLen(); q > m.Stats.MaxQueue {
				m.Stats.MaxQueue = q
			}
			*pc = 3
			c.SleepSeconds(svc)
			return false
		default:
			m.res.Release()
			*pc = 0
			return true
		}
	}
}

// MDSOp is one bare metadata operation (open, create, stat, close) in
// flight: queueing at the server plus service time.
type MDSOp struct {
	m  *MDS
	pc int
}

// Begin arms the op against metadata server m; drive it with Step until
// true.
func (op *MDSOp) Begin(m *MDS) {
	op.m = m
	op.pc = 0
}

// Step drives the metadata operation.
func (op *MDSOp) Step(c *simkernel.ContProc) bool { return op.m.opCont(&op.pc, c) }

// writeCont drives one write of bytes to the target, whose program counter
// is *pc: the fixed per-operation latency, then ingest until the last byte
// has been accepted (cache or disk) — or, against a target that is Dead
// when the request arrives, the configured DeadTimeout, after which it
// completes with ErrTargetDown. *pc is back at 0 whenever it completes,
// and never 0 while it is parked.
func (o *OST) writeCont(pc *int, bytes float64, c *simkernel.ContProc) (bool, error) {
	for {
		switch *pc {
		case 0:
			*pc = 1
			if o.cfg.WriteLatency > 0 {
				c.Sleep(o.cfg.WriteLatency)
				return false, nil
			}
		case 1:
			if o.health == Dead {
				*pc = 3
				c.SleepSeconds(o.cfg.DeadTimeout)
				return false, nil
			}
			if bytes <= 0 {
				*pc = 0
				return true, nil
			}
			o.accountWrite(c.Job(), bytes)
			o.StartWrite(bytes, c.Proc())
			*pc = 2
			c.Pause()
			return false, nil
		case 2:
			*pc = 0
			return true, nil
		default:
			o.Stats.WritesFailed++
			*pc = 0
			return true, o.downErr
		}
	}
}

// OSTWriteOp is one bare target write in flight (see OST.writeCont), for
// clients that drive a storage target directly rather than through a file.
type OSTWriteOp struct {
	o     *OST
	bytes float64
	pc    int
	err   error
}

// Begin arms the op for a write of bytes to target o; drive it with Step
// until true.
func (s *OSTWriteOp) Begin(o *OST, bytes float64) { *s = OSTWriteOp{o: o, bytes: bytes} }

// Step drives the write.
func (s *OSTWriteOp) Step(c *simkernel.ContProc) (done bool) {
	done, s.err = s.o.writeCont(&s.pc, s.bytes, c)
	return done
}

// Err returns the write error, if any; valid after Step returned true.
func (s *OSTWriteOp) Err() error { return s.err }

// opKind is the kind of operation a FileOp was last armed for.
type opKind uint8

const (
	opNone opKind = iota // never armed
	opCreate
	opOpen
	opWrite
	opFlush
	opRead
	opClose
)

// FileOp is one client operation on the file system in flight: a create,
// open, write, flush, read or close, picked by the Begin* call that arms
// it, or a commit, which chains a write, a flush and a close. Each kind's
// Begin* sets every field its Step reads, so one FileOp can be armed for
// any kind after any other. After the op completes, Err and File hold the
// result.
//
// The op drives no nested machine: each target-level step (a chunk's
// target write, the MDS operation) is a server method run on the op's one
// program counter, and a flush's waits run on its hop. The fields a
// flush's first and last steps read come first, inside the op's first 64
// bytes (pinned by TestFileOpFlushFieldsFirst), then the write fields,
// then those of the metadata kinds and reads.
type FileOp struct {
	kind   opKind
	skip   bool      // close: the handle was already closed
	commit bool      // write, flush: a BeginCommit's, so a flush after a good write, then a close, follows
	pc     int       // the current step: a chunk's target write or read, the flush's wait on its hop, the MDS operation
	i      int       // write, read: the next chunk
	f      *File     // the handle created or opened, or the one the op was begun on
	hop    *flushHop // flush: the walk, holding the touched set at BeginFlush

	chunks []chunk // write, read: kept as scratch across operations
	end    int64   // write: the offset just past the last byte
	err    error

	fs     *FileSystem // create, open
	name   string      // create, open
	osts   []int       // create: the layout, resolved at arm time
	stripe int64       // create
	rate   float64     // read: the current chunk's share-based rate
}

// Step drives the operation the op was last armed for; a client hands the
// op to ContProc.Call rather than stepping it itself. Each kind's body is
// a method of its own, so a CPU profile charges the kinds separately. A
// commit moves on to its next kind in the same Step, as a body that armed
// the flush and the close itself would in the same resume.
func (op *FileOp) Step(c *simkernel.ContProc) bool {
	for {
		switch op.kind {
		case opCreate:
			return op.stepCreate(c)
		case opOpen:
			return op.stepOpen(c)
		case opWrite:
			if !op.stepWrite(c) {
				return false
			}
		case opFlush:
			if !op.stepFlush(c) {
				return false
			}
		case opRead:
			return op.stepRead(c)
		case opClose:
			return op.stepClose(c)
		default:
			panic("pfs: Step on a FileOp that was never armed")
		}
		if !op.commit {
			return true
		}
		if op.kind == opWrite && op.err == nil {
			op.BeginFlush(op.f)
			op.commit = true
		} else {
			err := op.err
			op.BeginClose(op.f)
			op.err = err
		}
	}
}

// Err returns the operation's error, if any; valid once the op has
// completed.
func (op *FileOp) Err() error { return op.err }

// File returns the handle a create or open made (nil on error), or the one
// any other kind was begun on; valid once the op has completed.
func (op *FileOp) File() *File { return op.f }

// BeginCreate arms a metadata create (queueing at the MDS); run it with
// ContProc.Call. Creating an existing name truncates it, like O_TRUNC.
// The layout is resolved here, before the MDS queueing, so the round-robin
// allocation cursor is consumed in call order. The name is logged when the
// MDS operation completes, not here, so a lookup before then misses it.
func (op *FileOp) BeginCreate(fs *FileSystem, name string, layout Layout) {
	op.kind = opCreate
	op.pc = 0
	op.fs = fs
	op.name = name
	op.f = nil
	op.osts, op.stripe, op.err = fs.resolveLayout(layout)
}

// stepCreate drives a create. On a layout error it completes immediately
// with Err set and no MDS traffic.
func (op *FileOp) stepCreate(c *simkernel.ContProc) bool {
	if op.err != nil {
		return true
	}
	if !op.fs.MDS.opCont(&op.pc, c) {
		return false
	}
	f := op.fs.handles.New()
	f.fs = op.fs
	f.inode = f
	f.osts = op.osts
	f.stripe = op.stripe
	f.touched = op.fs.words.Take((len(op.fs.OSTs) + 63) / 64)
	op.fs.creates = append(op.fs.creates, created{op.name, f})
	op.f = f
	return true
}

// BeginOpen arms a metadata open of an existing file; run it with
// ContProc.Call. The name is looked up here, among the creates completed so
// far (the latest create of the name wins); the handle copy is taken after
// the metadata op completes.
func (op *FileOp) BeginOpen(fs *FileSystem, name string) {
	op.kind = opOpen
	op.pc = 0
	op.fs = fs
	op.name = name
	op.f = fs.lookup(name)
	op.err = nil
}

// stepOpen drives an open. Failed lookups still cost the MDS.
func (op *FileOp) stepOpen(c *simkernel.ContProc) bool {
	if !op.fs.MDS.opCont(&op.pc, c) {
		return false
	}
	if op.f == nil {
		op.err = noSuchFile(op.name)
		return true
	}
	h := op.fs.handles.New()
	*h = *op.f
	h.closed = false
	op.f = h
	return true
}

// noSuchFile builds the open-failure error off the hot path.
func noSuchFile(name string) error {
	return fmt.Errorf("pfs: no such file %q", name)
}

// BeginWrite arms a striped write of length bytes at offset, complete once
// every byte has been accepted by the storage targets; run it with
// ContProc.Call. Per-OST chunks are issued sequentially, each a target
// write (OST.writeCont) on the op's program counter, modelling a single
// POSIX/MPI-IO client stream working through its file region. A chunk
// against a Dead target sets Err to ErrTargetDown after the configured
// timeout and abandons the remaining chunks; bytes already accepted by
// earlier chunks stay accepted, but the handle's size is not advanced.
func (op *FileOp) BeginWrite(f *File, offset, length int64) {
	if f.closed {
		panic("pfs: write to closed file")
	}
	if length < 0 {
		panic("pfs: negative write length")
	}
	op.kind = opWrite
	op.commit = false
	op.pc = 0
	op.f = f
	op.end = offset + length
	op.chunks = f.appendChunks(op.chunks[:0], offset, length)
	op.i = 0
	op.err = nil
}

// BeginCommit arms the protocol that persists an index: append length
// bytes at the handle's end, flush them unless the append failed, then
// close the handle; run it with ContProc.Call. Err is the append's error,
// kept through the close, which runs whatever the append did.
func (op *FileOp) BeginCommit(f *File, length int64) {
	op.BeginWrite(f, f.size, length)
	op.commit = true
}

// stepWrite drives a write: chunks issue sequentially (a single client
// stream), and the handle/inode sizes update after the last byte is
// accepted.
func (op *FileOp) stepWrite(c *simkernel.ContProc) bool {
	f := op.f
	for op.i < len(op.chunks) {
		ch := op.chunks[op.i]
		if op.pc == 0 {
			f.touched[ch.ost/64] |= 1 << (ch.ost % 64)
		}
		done, err := f.fs.OSTs[ch.ost].writeCont(&op.pc, float64(ch.bytes), c)
		if !done {
			return false
		}
		if err != nil {
			op.err = err
			return true
		}
		op.i++
	}
	if op.end > f.size {
		f.size = op.end
	}
	if f.size > f.inode.size {
		f.inode.size = f.size
	}
	return true
}

// BeginFlush arms a flush, complete once all bytes the file's handles had
// written when it began are on disk; run it with ContProc.Call. It takes
// the flush's hop and snapshots the touched set into it, so a target
// another handle first writes after this call is not waited on. Touched
// targets are waited on sequentially in ascending id order by one walk
// (see flushHop); draining proceeds in parallel across OSTs, so the total
// wait is governed by the slowest target. A target outside the file
// system's live set is skipped.
func (op *FileOp) BeginFlush(f *File) {
	op.kind = opFlush
	op.commit = false
	op.pc = 0
	op.f = f
	op.hop = f.fs.hop(f.touched)
	op.err = nil
}

// stepFlush drives a flush: its first step starts the walk (see
// flushHop.start), and if the walk parks, the op's next step is its last,
// once the walk's hop has visited every target and resumed the process.
func (op *FileOp) stepFlush(c *simkernel.ContProc) bool {
	if op.pc != 0 {
		op.pc = 0
		return true
	}
	if op.hop.start(c.Proc()) {
		return true
	}
	op.pc = 1
	c.Pause()
	return false
}

// flushHop is a flush walk: the flushing process, its file system, the
// snapshot of targets still to visit (the set at BeginFlush minus those
// behind the walk) and the word of it holding the next one. The snapshot's
// buffer is the hop's own, kept across walks and Resets, so a replica that
// flushes forever grows no buffer once each hop has held its widest set.
// While the walk waits on a target, the hop is that target's flush waiter;
// when the target drains, fireCompletions schedules the hop itself, in the
// slot the process's wakeup would take, and Fire carries the walk on to
// the next target. Only a finished walk touches the process again, so the
// flushing op and the records above it are stepped where the walk starts
// and where it ends, however many targets it waits on.
//
// Walks that park on one target at one watermark with equal snapshots of
// what is left would walk on identically, so they share one waiter: the
// first hop leads a cohort, its members chained through next in FIFO
// order, and last names the leader's last member. The leader walks for
// them all, and a finished walk resumes every member in order.
type flushHop struct {
	p       *simkernel.Proc
	fs      *FileSystem
	pending []uint64
	i       int
	next    *flushHop // the next member of the cohort, or nil
	last    *flushHop // on a leader: its cohort's last member
}

// hop takes a hop from the free list, or a new one, holding a copy of
// touched as its snapshot.
//
//repro:hotpath
func (fs *FileSystem) hop(touched []uint64) *flushHop {
	var h *flushHop
	if n := len(fs.freeHops); n > 0 {
		h = fs.freeHops[n-1]
		fs.freeHops = fs.freeHops[:n-1]
	} else {
		h = fs.hops.Reuse()
		h.fs = fs
	}
	h.pending = append(h.pending[:0], touched...)
	return h
}

// start walks the snapshot for process p from its first word: it reports
// true if no target needed waiting on, returning the hop to the free list,
// and otherwise parks the hop, alone or in a cohort, which resumes p once
// the walk is done, and p must pause.
//
//repro:hotpath
func (h *flushHop) start(p *simkernel.Proc) bool {
	h.p, h.i = p, 0
	h.next, h.last = nil, h
	if h.walk() {
		return false
	}
	h.fs.freeHops = append(h.fs.freeHops, h)
	return true
}

// Fire runs when the target the cohort waits on has drained to its
// watermark: it clears that target, the lowest pending one, and carries
// the leader's walk on. A finished walk goes through the members in FIFO
// order, returning each hop to the free list and then resuming its
// process, in this same event.
//
//repro:hotpath
func (h *flushHop) Fire() {
	h.pending[h.i] &= h.pending[h.i] - 1
	if h.walk() {
		return
	}
	fs := h.fs
	for m := h; m != nil; {
		p, next := m.p, m.next
		fs.freeHops = append(fs.freeHops, m)
		p.Resume()
		m = next
	}
}

// walk visits the targets left in the snapshot, in ascending id order from
// word h.i, and parks the hop's cohort on the first that still holds dirty
// bytes, reporting whether it parked. It waits there until every byte the
// target had ingested when the walk reached it has drained to disk (the
// explicit flush the paper inserts before close). A target outside the
// file system's live set is skipped: it has no flows and an empty cache,
// so a visit would return at once and change nothing but its lastUpdate.
//
//repro:hotpath
func (h *flushHop) walk() bool {
	fs := h.fs
	for ; h.i < len(h.pending); h.i++ {
		for {
			w := h.pending[h.i] & fs.live[h.i]
			if w == 0 {
				break
			}
			// Clear every idle target below the one to visit. A pending
			// target above it stays, even if idle now: it may be written
			// again before the walk gets there. The target being visited
			// is then the lowest pending one until its wait completes.
			b := bits.TrailingZeros64(w)
			h.pending[h.i] &^= uint64(1)<<b - 1
			o := fs.OSTs[h.i*64+b]
			o.advance()
			if o.cacheLevel > completionEps {
				// Behind an existing head the push, or the join to the back
				// waiter's cohort, changes none of recompute's inputs, so a
				// recompute already run since the fluid state last changed
				// would re-derive the same plan and the same boundary.
				behind := o.waiters.Len() > 0
				if !behind || !h.join(o.waiters.Back(), o.ingestedTotal) {
					o.waiters.Push(flushWaiter{watermark: o.ingestedTotal, hop: h})
				}
				if !behind || !o.recomputed {
					o.recompute()
				}
				return true
			}
			h.pending[h.i] &^= 1 << b
		}
	}
	return false
}

// join appends the hop's cohort to back's when back, the last waiter of
// the target the hop parks on, waits at the same watermark with an equal
// snapshot of what is left, and reports whether it did. Bits below the
// target are clear in word i of both snapshots, so the words from i on are
// the whole walk left: the two cohorts would be released by one drain, in
// one instant, and walk on identically.
//
//repro:hotpath
func (h *flushHop) join(back flushWaiter, watermark float64) bool {
	l := back.hop
	if back.watermark != watermark || l.i != h.i || !slices.Equal(l.pending[h.i:], h.pending[h.i:]) {
		return false
	}
	l.last.next = h
	l.last = h.last
	return true
}

// BeginRead arms a read; run it with ContProc.Call. Reads bypass the
// write cache and share disk bandwidth with ongoing writes; the model is
// coarse since the paper's experiments are write-dominated: per chunk, the
// share-based rate is fixed at issue time — before the latency sleep —
// then latency plus transfer. A chunk against a Dead target hangs for the
// configured timeout and sets Err to ErrTargetDown, and is not counted as
// served; a Degraded or Rebuilding target serves the read at its
// health-reduced bandwidth.
func (op *FileOp) BeginRead(f *File, offset, length int64) {
	op.kind = opRead
	op.pc = 0
	op.f = f
	op.chunks = f.appendChunks(op.chunks[:0], offset, length)
	op.i = 0
	op.err = nil
}

// stepRead drives a read.
func (op *FileOp) stepRead(c *simkernel.ContProc) bool {
	f := op.f
	for op.i < len(op.chunks) {
		ch := op.chunks[op.i]
		switch op.pc {
		case 0:
			o := f.fs.OSTs[ch.ost]
			if o.health == Dead {
				op.pc = 3
				c.Sleep(f.fs.Cfg.WriteLatency)
				return false
			}
			o.accountRead(c.Job(), float64(ch.bytes))
			streams := o.ActiveFlows() + o.ExternalStreams() + 1
			rate := f.fs.Cfg.DiskBW * f.fs.eff.disk.at(streams) * o.SlowFactor() * o.HealthFactor() / float64(streams)
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

// BeginClose arms a metadata close; run it with ContProc.Call. It
// flushes nothing (callers flush explicitly, as the paper's methodology
// does). A handle already closed completes inline with no MDS traffic.
func (op *FileOp) BeginClose(f *File) {
	op.kind = opClose
	op.pc = 0
	op.f = f
	op.skip = f.closed
	if !op.skip {
		f.closed = true
	}
	op.err = nil
}

// stepClose drives a close.
func (op *FileOp) stepClose(c *simkernel.ContProc) bool {
	if op.skip {
		return true
	}
	return op.f.fs.MDS.opCont(&op.pc, c)
}
