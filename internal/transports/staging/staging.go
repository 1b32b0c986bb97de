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

	"repro/internal/bp"
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

	steps     map[string]*stepState
	stepCount int
}

// New builds the staging method.
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
	if len(cfg.OSTs) == 0 {
		cfg.OSTs = make([]int, len(fs.OSTs))
		for i := range cfg.OSTs {
			cfg.OSTs[i] = i
		}
	}
	for _, o := range cfg.OSTs {
		if o < 0 || o >= len(fs.OSTs) {
			return nil, fmt.Errorf("staging: OST %d out of range", o)
		}
	}
	return &Method{w: w, fs: fs, cfg: cfg, steps: make(map[string]*stepState)}, nil
}

// Name implements iomethod.Method.
func (m *Method) Name() string { return "STAGING" }

// block is one rank's output staged on a node.
type block struct {
	rank  int
	bytes int64
	data  iomethod.RankData
}

// node is one staging node's state.
type node struct {
	id     int
	ingest *simkernel.Resource // serialises transfers (NIC)
	sem    *byteSem            // buffer space
	queue  []*block
	kick   func() // wakes the drainer
}

type stepState struct {
	seq     int
	name    string
	res     *iomethod.StepResult
	nodes   []*node
	files   []*pfs.File
	names   []string
	setupWG *simkernel.WaitGroup
	t0      simkernel.Time
	t0Set   bool

	offsets  []int64              // next write offset per drain file (reserved at dispatch)
	inflight []int                // drains dispatched but not yet finished, per file
	blocksWG *simkernel.WaitGroup // all data blocks on storage
	drainWG  *simkernel.WaitGroup // blocks + index writes
	locals   []bp.LocalIndex
	returned int

	machines []stepCont // per rank, one backing array for the whole step
	drainers []drainer  // per node
}

func (m *Method) step(stepName string) *stepState {
	st, ok := m.steps[stepName]
	if !ok {
		k := m.w.Kernel()
		st = &stepState{
			seq:      m.stepCount,
			name:     stepName,
			setupWG:  simkernel.NewWaitGroup(k),
			blocksWG: simkernel.NewWaitGroup(k),
			drainWG:  simkernel.NewWaitGroup(k),
			res: &iomethod.StepResult{
				WriterTimes: make([]float64, m.w.Size()),
				Files:       m.cfg.Nodes,
			},
			nodes:    make([]*node, m.cfg.Nodes),
			files:    make([]*pfs.File, m.cfg.Nodes),
			names:    make([]string, m.cfg.Nodes),
			locals:   make([]bp.LocalIndex, m.cfg.Nodes),
			offsets:  make([]int64, m.cfg.Nodes),
			inflight: make([]int, m.cfg.Nodes),
			machines: make([]stepCont, m.w.Size()),
			drainers: make([]drainer, m.cfg.Nodes),
		}
		m.stepCount++
		st.setupWG.Add(m.w.Size())
		st.blocksWG.Add(m.w.Size())
		st.drainWG.Add(m.w.Size() + m.cfg.Nodes) // blocks + index writes
		for i := 0; i < m.cfg.Nodes; i++ {
			st.nodes[i] = &node{
				id:     i,
				ingest: simkernel.NewResource(k, 1),
				sem:    newByteSem(m.cfg.BufferBytes),
			}
			st.names[i] = fmt.Sprintf("%s.stage%03d.bp", stepName, i)
		}
		m.steps[stepName] = st
	}
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

	pc       int
	i        int // rank 0's drain-file create cursor
	total    int64
	setupErr error
	create   pfs.CreateOp

	res *iomethod.StepResult
	err error
}

// BeginStepCont implements iomethod.Method. It only arms the machine; all
// simulation work happens in Step.
func (m *Method) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := m.step(stepName)
	rank := r.Rank()
	s := &st.machines[rank]
	*s = stepCont{m: m, st: st, rank: rank, data: data, nd: st.nodes[rank%len(st.nodes)]}
	return s
}

// oversized builds the block-too-large error off the hot path.
func oversized(rank int, total int64, buffer float64) error {
	return fmt.Errorf("staging: rank %d block (%d bytes) exceeds node buffer (%.0f)", rank, total, buffer)
}

// Step drives the rank's step. Untimed setup: rank 0 creates the per-node
// drain files and launches the drainers. Timed (application-blocking)
// phase: reserve buffer space, then transfer over the node's NIC, FIFO.
//
//repro:hotpath
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	m, st, nd := s.m, s.st, s.nd
	for {
		switch s.pc {
		case 0:
			s.pc = 3
			if s.rank == 0 {
				s.pc = 1
			}
		case 1:
			if s.i == len(st.nodes) {
				s.pc = 3
				continue
			}
			target := m.cfg.OSTs[s.i%len(m.cfg.OSTs)]
			s.create.BeginCreate(m.fs, st.names[s.i], pfs.Layout{OSTs: []int{target}})
			s.pc = 2
		case 2:
			if !s.create.Step(c) {
				return false
			}
			if s.setupErr = s.create.Err(); s.setupErr != nil {
				s.pc = 3
				continue
			}
			st.files[s.i] = s.create.File()
			m.spawnDrainer(st, st.nodes[s.i])
			s.i++
			s.pc = 1
		case 3:
			st.setupWG.Done()
			s.pc = 4
		case 4:
			if !st.setupWG.WaitCont(c) {
				return false
			}
			if s.setupErr != nil {
				s.err = s.setupErr
				return true
			}
			if !st.t0Set {
				st.t0 = c.Now()
				st.t0Set = true
			}
			s.total = s.data.TotalBytes()
			if float64(s.total) > m.cfg.BufferBytes {
				s.err = oversized(s.rank, s.total, m.cfg.BufferBytes)
				return true
			}
			s.pc = 5
			if !nd.sem.acquireCont(c, float64(s.total)) {
				return false
			}
		case 5:
			s.pc = 6
			if !nd.ingest.AcquireCont(c) {
				return false
			}
		case 6:
			s.pc = 7
			c.SleepSeconds(float64(s.total) / m.cfg.NodeIngestBW)
			return false
		default:
			nd.ingest.Release()
			s.nd.queue = append(s.nd.queue, &block{rank: s.rank, bytes: s.total, data: s.data})
			if nd.kick != nil {
				nd.kick()
			}
			st.res.WriterTimes[s.rank] = (c.Now() - st.t0).Seconds()
			st.res.TotalBytes += float64(s.total)
			if el := (c.Now() - st.t0).Seconds(); el > st.res.Elapsed {
				st.res.Elapsed = el
			}
			st.returned++
			if st.returned == m.w.Size() {
				delete(m.steps, st.name)
			}
			s.res = st.res
			return true
		}
	}
}

// Result implements iomethod.StepCont.
func (s *stepCont) Result() (*iomethod.StepResult, error) { return s.res, s.err }

// spawnDrainer launches node nd's background drain process.
func (m *Method) spawnDrainer(st *stepState, nd *node) {
	d := &st.drainers[nd.id]
	*d = drainer{m: m, st: st, nd: nd}
	for r := nd.id; r < m.w.Size(); r += len(st.nodes) {
		d.share++
	}
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
	blk     *block
	entries []bp.VarEntry
	enc     int64
	f       *pfs.File

	write   pfs.WriteOp
	flush   pfs.FlushOp
	closeOp pfs.CloseOp
}

// Step implements simkernel.Cont.
//
//repro:hotpath
func (d *drainer) Step(c *simkernel.ContProc) bool {
	m, st, nd := d.m, d.st, d.nd
	for {
		switch d.pc {
		case 0:
			if d.drained == d.share {
				d.pc = 3
				continue
			}
			if len(nd.queue) == 0 {
				nd.kick = c.Waker()
				d.pc = 1
				c.Pause()
				return false
			}
			d.blk = nd.queue[0]
			nd.queue = nd.queue[1:]
			d.fileIdx = nd.id
			if m.cfg.Policy == DrainLeastLoaded {
				d.fileIdx = m.leastLoadedFile(st)
			}
			// Reserve the offset range before the (time-consuming) write so
			// concurrent drainers targeting the same file cannot overlap.
			off := st.offsets[d.fileIdx]
			var total int64
			d.entries, total = iomethod.BuildEntries(d.blk.rank, off, d.blk.data)
			st.offsets[d.fileIdx] += total
			st.inflight[d.fileIdx]++
			d.write.BeginWrite(st.files[d.fileIdx], off, total)
			d.pc = 2
		case 1:
			nd.kick = nil
			d.pc = 0
		case 2:
			if !d.write.Step(c) {
				return false
			}
			st.inflight[d.fileIdx]--
			nd.sem.release(float64(d.blk.bytes))
			if d.write.Err() == nil {
				d.st.locals[d.fileIdx].Entries = append(d.st.locals[d.fileIdx].Entries, d.entries...)
			} else {
				// The block's target died past its timeout: the data is lost
				// (it never reached storage and the rank has long returned),
				// but the drain bookkeeping completes so the step drains dry.
				st.res.WriteFailures++
			}
			d.blk, d.entries = nil, nil
			d.drained++
			st.blocksWG.Done()
			st.drainWG.Done()
			d.pc = 0
		case 3:
			// Wait for every block (other drainers may still be appending to
			// this node's file under the least-loaded policy), then write
			// this node's local index and close its file.
			if !st.blocksWG.WaitCont(c) {
				return false
			}
			li := &st.locals[nd.id]
			li.File = st.names[nd.id]
			li.Sort()
			encLen, err := li.EncodedLen()
			if err != nil {
				panic(err)
			}
			d.enc = int64(encLen)
			d.f = st.files[nd.id]
			d.write.BeginAppend(d.f, d.enc)
			d.pc = 4
		case 4:
			if !d.write.Step(c) {
				return false
			}
			d.pc = 6
			if d.write.Err() != nil {
				// Index lost with its target; still close so the step
				// completes.
				st.res.WriteFailures++
				continue
			}
			st.res.IndexBytes += float64(d.enc)
			d.flush.BeginFlush(d.f)
			d.pc = 5
		case 5:
			if !d.flush.Step(c) {
				return false
			}
			d.pc = 6
		case 6:
			d.closeOp.BeginClose(d.f)
			d.pc = 7
		default:
			if !d.closeOp.Step(c) {
				return false
			}
			st.drainWG.Done()
			if st.drainWG.Count() == 0 {
				g := &bp.GlobalIndex{Step: int64(st.seq), Locals: append([]bp.LocalIndex(nil), st.locals...)} //repro:allow hotpath copy idiom: appends into a fresh nil slice, once per step
				g.Sort()
				st.res.Global = g
				st.res.DrainElapsed = (c.Now() - st.t0).Seconds()
			}
			return true
		}
	}
}

// leastLoadedFile picks the drain file whose target currently has the least
// outstanding work (dirty cache bytes plus active flows, weighted).
func (m *Method) leastLoadedFile(st *stepState) int {
	best, bestLoad := 0, -1.0
	for i, f := range st.files {
		target := f.StripeOSTs()[0]
		o := m.fs.OST(target)
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
	waiters []semWaiter
}

type semWaiter struct {
	need float64
	wake func()
}

func newByteSem(capacity float64) *byteSem {
	return &byteSem{free: capacity}
}

// acquireCont takes n bytes for a continuation body, advance style, FIFO
// (head-of-line: later smaller requests do not jump the queue, preserving
// fairness). It reports whether the bytes were taken inline; on false c is
// queued and marked parked, and the wakeup from release means the bytes
// are already reserved, so the body must advance past the acquire before
// yielding.
func (s *byteSem) acquireCont(c *simkernel.ContProc, n float64) bool {
	if len(s.waiters) == 0 && s.free >= n {
		s.free -= n
		return true
	}
	s.waiters = append(s.waiters, semWaiter{need: n, wake: c.Waker()})
	c.Pause()
	return false
}

// release returns n bytes and admits queued waiters in order while they
// fit.
func (s *byteSem) release(n float64) {
	s.free += n
	for len(s.waiters) > 0 && s.waiters[0].need <= s.free {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.free -= w.need
		w.wake()
	}
}

// Free reports the available bytes (diagnostics).
func (s *byteSem) Free() float64 { return s.free }
