// Package staging implements a data-staging transport, the alternative
// Section II-3 of the paper analyzes: output moves from the many compute
// ranks to a small set of staging nodes first, and the staging nodes drain
// it to the parallel file system asynchronously.
//
// The paper's two observations about staging are both reproduced by this
// model and checked in its tests:
//
//  1. "the total buffer space available in the staging area is limited,
//     thereby limiting the achievable degree of asynchronicity" — a rank's
//     step completes as soon as its data is accepted by a staging node,
//     but acceptance blocks while the node's buffer is full, so an output
//     larger than the staging area degenerates toward synchronous speed.
//  2. staging "can help with interference issues, but does not directly
//     address them" — the drain sees exactly the same interfering file
//     system.
//
// As the paper notes its ongoing work integrated adaptive ideas into the
// staging software, the drainer offers a least-loaded target policy
// (DrainLeastLoaded) next to plain round-robin.
package staging

import (
	"fmt"

	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// DrainPolicy selects how staging nodes place drained blocks on storage.
type DrainPolicy int

const (
	// DrainRoundRobin writes each staging node's file on a fixed target.
	DrainRoundRobin DrainPolicy = iota
	// DrainLeastLoaded picks, per block, the target with the least queued
	// work — the adaptive-flavoured variant.
	DrainLeastLoaded
)

// Config tunes the staging transport.
type Config struct {
	// Nodes is the number of staging nodes (compute ranks map to nodes
	// round-robin).
	Nodes int
	// BufferBytes is each node's staging buffer capacity.
	BufferBytes float64
	// NodeIngestBW is a node's network acceptance rate in bytes/sec
	// (transfers from ranks are served FIFO at this rate).
	NodeIngestBW float64
	// OSTs are the storage targets the drainers may use; empty = all.
	OSTs []int
	// Policy selects the drain placement policy.
	Policy DrainPolicy
}

// Method is the staging transport bound to a world and file system.
type Method struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	machines *simkernel.Slab[stepCont] // the kernel's, for the per-rank carve

	steps iomethod.Steps[stepState]
}

// New builds the staging method. Its step state is carved from the world's
// kernel, one slab per type (simkernel.Local[simkernel.Slab[T]]), so what
// its steps return is valid until the kernel's next Reset.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Method, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 4 * pfs.GB
	}
	if cfg.NodeIngestBW <= 0 {
		cfg.NodeIngestBW = 1.5 * pfs.GB
	}
	if err := iomethod.Targets("staging", &cfg.OSTs, fs); err != nil {
		return nil, err
	}
	return &Method{w: w, fs: fs, cfg: cfg, machines: simkernel.Local[simkernel.Slab[stepCont]](w.Kernel())}, nil
}

// Name implements iomethod.Method.
func (m *Method) Name() string { return "STAGING" }

// block is one rank's output staged on a node.
type block struct {
	rank  int
	bytes int64
	data  iomethod.RankData
}

// node is one staging node's state and its drain process. A node is carved
// with Reuse and re-armed by reset, which keeps its rings' storage and its
// drainer's op.
type node struct {
	id      int
	ingest  simkernel.Resource    // serialises transfers (NIC)
	sem     byteSem               // buffer space
	queue   simkernel.Ring[block] // staged blocks, in arrival order
	parked  *simkernel.Proc       // the drainer while it waits for a block
	drainer drainer
}

// reset re-arms the node as staging node id with an empty buffer of the
// given capacity. The drainer is armed when it is spawned.
func (nd *node) reset(id int, buffer float64) {
	nd.id, nd.parked = id, nil
	nd.ingest.Reset(1)
	nd.sem.reset(buffer)
	nd.queue.Reset()
	nd.drainer = drainer{op: nd.drainer.op}
}

// wake resumes the node's drainer if it is waiting for a block. It clears
// parked first, so two wakers in one instant resume the drainer once.
func (nd *node) wake() {
	if p := nd.parked; p != nil {
		nd.parked = nil
		p.Wake()
	}
}

type stepState struct {
	iomethod.Step
	nodes []*node
	files []*pfs.File
	names []string

	offsets  []int64              // next write offset per drain file (reserved at dispatch)
	inflight []int                // drains dispatched but not yet finished, per file
	blocksWG *simkernel.WaitGroup // all data blocks on storage
	drainWG  *simkernel.WaitGroup // blocks + index writes
}

func (m *Method) step(stepName string) *stepState {
	if st := m.steps.Get(stepName); st != nil {
		return st
	}
	W, n := m.w.Size(), m.cfg.Nodes
	k := m.w.Kernel()
	waits := simkernel.Local[simkernel.Slab[simkernel.WaitGroup]](k)
	st := simkernel.Local[simkernel.Slab[stepState]](k).New()
	*st = stepState{
		blocksWG: simkernel.TakeWaitGroup(waits, W),
		drainWG:  simkernel.TakeWaitGroup(waits, W+n), // blocks + index writes
		nodes:    simkernel.Local[simkernel.Slab[*node]](k).Take(n),
		files:    simkernel.Local[simkernel.Slab[*pfs.File]](k).Take(n),
		names:    simkernel.Local[simkernel.Slab[string]](k).Take(n),
		offsets:  simkernel.Local[simkernel.Slab[int64]](k).Take(n),
		inflight: simkernel.Local[simkernel.Slab[int]](k).Take(n),
	}
	nodes := simkernel.Local[simkernel.Slab[node]](k)
	for i := range st.nodes {
		st.nodes[i] = nodes.Reuse()
		st.nodes[i].reset(i, m.cfg.BufferBytes)
		st.names[i] = fmt.Sprintf("%s.stage%03d.bp", stepName, i)
	}
	m.steps.Open(k, st, &st.Step, stepName, W, st.names)
	return st
}

// stepCont is one rank's staging step in flight: transfer the rank's
// buffered data to its staging node (blocking while the node's buffer is
// full — the limited asynchronicity), then complete. Drainers move the data
// to storage in the background; StepResult.DrainElapsed records when the
// last byte (and index) reached the file system.
type stepCont struct {
	m    *Method
	st   *stepState
	rank int
	data iomethod.RankData
	nd   *node

	pc    int
	i     int // rank 0's drain-file create cursor
	total int64
	op    pfs.FileOp

	iomethod.Outcome
}

// BeginStepCont implements iomethod.Method. The machine is carved with
// Reuse and re-armed whole except for its op, whose chunk list is kept as
// scratch.
func (m *Method) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := m.step(stepName)
	rank := r.Rank()
	s := m.machines.Reuse()
	*s = stepCont{m: m, st: st, rank: rank, data: data, nd: st.nodes[rank%len(st.nodes)], op: s.op}
	return s
}

// oversized builds the block-too-large error off the hot path.
func oversized(rank int, total int64, buffer float64) error {
	return fmt.Errorf("staging: rank %d block (%d bytes) exceeds node buffer (%.0f)", rank, total, buffer)
}

// Step drives the rank's step. Untimed setup: rank 0 creates the per-node
// drain files and launches the drainers. Timed (application-blocking)
// phase: reserve buffer space, then transfer over the node's NIC, FIFO.
// A rank whose block is not staged, because the step's setup failed or the
// block exceeds a node's buffer, returns its error, and its node's drainer
// stops waiting for the block.
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	m, st, nd := s.m, s.st, s.nd
	for {
		switch s.pc {
		case 0:
			if s.rank != 0 || s.i == len(st.nodes) {
				s.pc = 2
				continue
			}
			t := s.i % len(m.cfg.OSTs)
			s.op.BeginCreate(m.fs, st.names[s.i], pfs.Layout{OSTs: m.cfg.OSTs[t : t+1 : t+1]})
			s.pc = 1
			if !c.Call(&s.op) {
				return false
			}
		case 1:
			if s.Err = s.op.Err(); s.Err != nil {
				s.pc = 2
				continue
			}
			st.files[s.i] = s.op.File()
			st.Res.AddFile(s.i)
			m.spawnDrainer(st, st.nodes[s.i])
			s.i++
			s.pc = 0
		case 2:
			st.SetupDone(s.Err)
			s.pc = 3
		case 3:
			ok, err := st.WaitSetup(c, m.fs)
			if !ok {
				return false
			}
			s.total = s.data.TotalBytes()
			if s.Err = err; err == nil && float64(s.total) > m.cfg.BufferBytes {
				s.Err = oversized(s.rank, s.total, m.cfg.BufferBytes)
			}
			if s.Err != nil {
				s.pc = 7
				continue
			}
			s.pc = 4
			if !nd.sem.acquireCont(c, float64(s.total)) {
				return false
			}
		case 4:
			s.pc = 5
			if !nd.ingest.AcquireCont(c) {
				return false
			}
		case 5:
			s.pc = 6
			c.SleepSeconds(float64(s.total) / m.cfg.NodeIngestBW)
			return false
		case 6:
			nd.ingest.Release()
			nd.queue.Push(block{rank: s.rank, bytes: s.total, data: s.data})
			nd.wake()
			st.Wrote(s.rank, c.Now())
			st.Res.TotalBytes += float64(s.total)
			s.pc = 7
		default:
			if s.Err != nil {
				// The block is not staged: its node's drainer, if setup
				// spawned one, stops waiting for it.
				nd.drainer.share--
				nd.wake()
				st.blocksWG.Done()
				st.drainWG.Done()
			}
			s.Res = m.steps.Return(&st.Step, c.Now())
			return true
		}
	}
}

// spawnDrainer launches node nd's background drain process.
func (m *Method) spawnDrainer(st *stepState, nd *node) {
	d := &nd.drainer
	*d = drainer{m: m, st: st, nd: nd, op: d.op}
	d.share = (m.w.Size() - nd.id + len(st.nodes) - 1) / len(st.nodes) // ranks nd.id + k*nodes
	m.w.Kernel().SpawnCont(d)
}

// drainer is one staging node's background drain process: it writes each
// staged block to storage as it arrives, then, once every block of the step
// is on storage, writes the node's local index and closes its file.
type drainer struct {
	m  *Method
	st *stepState
	nd *node

	pc      int
	share   int // blocks staged on this node
	drained int
	fileIdx int
	off     int64
	blk     block
	enc     int64

	op pfs.FileOp
}

// Step implements simkernel.Cont.
func (d *drainer) Step(c *simkernel.ContProc) bool {
	m, st, nd := d.m, d.st, d.nd
	for {
		switch d.pc {
		case 0:
			if d.drained == d.share {
				d.pc = 2
				continue
			}
			if nd.queue.Len() == 0 {
				nd.parked = c.Proc()
				c.Pause()
				return false
			}
			d.blk = nd.queue.Pop()
			d.fileIdx = nd.id
			if m.cfg.Policy == DrainLeastLoaded {
				d.fileIdx = m.leastLoadedFile(st)
			}
			// Reserve the offset range before the (time-consuming) write so
			// concurrent drainers targeting the same file cannot overlap.
			d.off = st.offsets[d.fileIdx]
			st.offsets[d.fileIdx] += d.blk.bytes
			st.inflight[d.fileIdx]++
			d.op.BeginWrite(st.files[d.fileIdx], d.off, d.blk.bytes)
			d.pc = 1
			if !c.Call(&d.op) {
				return false
			}
		case 1:
			st.inflight[d.fileIdx]--
			nd.sem.release(float64(d.blk.bytes))
			if d.op.Err() == nil {
				st.Res.AddBlock(d.fileIdx, d.blk.rank, d.off, d.blk.data)
			} else {
				// The block's target died past its timeout: the data is lost
				// (it never reached storage and the rank has long returned),
				// but the drain bookkeeping completes so the step drains dry.
				st.Res.WriteFailures++
			}
			d.drained++
			st.blocksWG.Done()
			st.drainWG.Done()
			d.pc = 0
		case 2:
			// Wait for every block (other drainers may still be appending to
			// this node's file under the least-loaded policy), then write
			// this node's local index and close its file.
			if !st.blocksWG.WaitCont(c) {
				return false
			}
			d.enc = st.Res.LocalIndexLen(nd.id)
			d.op.BeginCommit(st.files[nd.id], d.enc)
			d.pc = 3
			if !c.Call(&d.op) {
				return false
			}
		default:
			if d.op.Err() != nil {
				// Index lost with its target; the file is closed all the
				// same, so the step completes.
				st.Res.WriteFailures++
			} else {
				st.Res.IndexBytes += float64(d.enc)
			}
			st.drainWG.Done()
			if st.drainWG.Count() == 0 {
				st.Res.DrainElapsed = st.Since(c.Now())
			}
			return true
		}
	}
}

// leastLoadedFile picks the drain file whose target currently has the least
// outstanding work (dirty cache bytes plus active flows, weighted).
func (m *Method) leastLoadedFile(st *stepState) int {
	best, bestLoad := 0, -1.0
	for i := range st.files {
		o := m.fs.OST(m.cfg.OSTs[i%len(m.cfg.OSTs)]) // the target file i was created on
		// Outstanding work — dirty bytes, active flows, and drains already
		// dispatched to this file but not yet visible as flows (the write
		// latency window would otherwise herd every drainer onto the same
		// "idle" target) — plus one nominal block so an idle slow target
		// still scores worse than an idle fast one, divided by the
		// target's current service factor.
		load := o.CacheLevel() + float64(o.ActiveFlows()+st.inflight[i]+1)*32*pfs.MB
		load /= o.SlowFactor()
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// byteSem is a FIFO byte-counting semaphore over a node's buffer space.
type byteSem struct {
	free    float64
	waiters simkernel.Ring[semWaiter]
}

type semWaiter struct {
	need float64
	p    *simkernel.Proc
}

// reset re-arms the semaphore with capacity free bytes and no waiters.
func (s *byteSem) reset(capacity float64) {
	s.free = capacity
	s.waiters.Reset()
}

// acquireCont takes n bytes for a continuation body, advance style, FIFO
// (head-of-line: later smaller requests do not jump the queue, preserving
// fairness). It reports whether the bytes were taken inline; on false c is
// queued and marked parked, and the wakeup from release means the bytes
// are already reserved, so the body must advance past the acquire before
// yielding.
func (s *byteSem) acquireCont(c *simkernel.ContProc, n float64) bool {
	if s.waiters.Len() == 0 && s.free >= n {
		s.free -= n
		return true
	}
	s.waiters.Push(semWaiter{need: n, p: c.Proc()})
	c.Pause()
	return false
}

// release returns n bytes and admits queued waiters in order while they
// fit.
func (s *byteSem) release(n float64) {
	s.free += n
	for s.waiters.Len() > 0 && s.waiters.Front().need <= s.free {
		w := s.waiters.Pop()
		s.free -= w.need
		w.p.Wake()
	}
}

// Free reports the available bytes (diagnostics).
func (s *byteSem) Free() float64 { return s.free }
