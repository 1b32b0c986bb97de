package core

import (
	"fmt"
	"time"

	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Message tags: each role listens on its own tag so the writer, SC, and C
// activities hosted by one rank never steal each other's messages.
const (
	tagToWriter = 1001
	tagToSC     = 1002
	tagToC      = 1003
)

// scKind discriminates the wire messages of Algorithms 1–3. The whole
// protocol travels in one envelope type (scMsg) rather than one struct type
// per message: a *scMsg is pointer-shaped, so storing it in Message.Data
// costs no interface-boxing allocation, and carving the envelopes from the
// kernel's slab makes a warmed replica's send/receive 0 allocs/op.
type scKind uint8

const (
	// kindWriteGo is the "(target, offset)" signal a writer waits for.
	// Fields: target, offset.
	kindWriteGo scKind = iota
	// kindWriteComplete is Algorithm 1's WRITE COMPLETE.
	// Fields: writer, source, target, bytes.
	kindWriteComplete
	// kindIndexBody announces that a writer's index records are on the wire
	// to the target SC. The records themselves are derivable from the
	// writer's RankData (st.dataOf) and its offset, so the SC logs the
	// block on receipt instead of copying records out of the message.
	// Fields: writer, offset.
	kindIndexBody
	// kindAdaptiveStart is C's ADAPTIVE WRITE START request to an SC.
	// Fields: target, offset.
	kindAdaptiveStart
	// kindWritersBusy is the SC's refusal: all its writers are scheduled.
	// Fields: group, target (echoed so C can free the reserved target).
	kindWritersBusy
	// kindSCComplete is the SC's completion report (with its file's end).
	// Fields: group, offset (the final file-end offset).
	kindSCComplete
	// kindAdaptiveDone is the triggering SC's forward of an adaptive
	// write's completion to C. Fields: source, target, bytes.
	kindAdaptiveDone
	// kindWriteFailed is a writer's report that its assigned write was
	// abandoned with pfs.ErrTargetDown: the target was Dead past the
	// client timeout. The triggering SC requeues the writer.
	// Fields: writer, source, target.
	kindWriteFailed
	// kindAdaptiveFailed is the SC's forward of a failed adaptive write to
	// C: the redirect target is dead, its request slot is released and the
	// target blacklisted; the writer is already requeued at the SC.
	// Fields: source, target.
	kindAdaptiveFailed
	// kindRetryOwn is the SC's self-addressed backoff probe: clear the
	// own-target-dead latch and try feeding the own file again. This is how
	// the SC distinguishes "slow" from "dead" — a slow target completes its
	// writes eventually, a dead one fails them, and the probe retries until
	// the target has revived. No fields.
	kindRetryOwn
	// kindOverallComplete is C's OVERALL WRITE COMPLETE broadcast. No
	// fields.
	kindOverallComplete
	// kindLocalIndex ships an SC's finished local index to C. Its records
	// are already in the step's index log, so only the timing travels.
	// Fields: group.
	kindLocalIndex
)

// scMsg is the wire envelope for the adaptive protocol. The fields form a
// union across kinds (see the scKind constants for which are live). Each
// message gets its own envelope, carved from the kernel's slab
// (Adaptive.msg), and it lasts until the kernel's Reset rewinds the slab: no
// receiver gives one back, and a message that fans out to two recipients is
// sent as two envelopes.
type scMsg struct {
	kind   scKind
	writer int
	source int
	target int
	group  int
	offset int64
	bytes  int64
}

// Config tunes the adaptive method.
type Config struct {
	// OSTs are the storage targets to use, one writer group per target
	// (the paper's evaluations use 512 of Jaguar's OSTs, successfully
	// tested with all 672). Empty means all targets of the file system.
	OSTs []int

	// WritersPerTarget generalises the "one simultaneous writer per storage
	// location" invariant (the paper mentions 2–3 as an unevaluated
	// generalisation). Default 1, the paper's configuration.
	WritersPerTarget int

	// StaggerOpens spaces the sub-coordinators' file creates by this delay
	// times the group index, the stagger technique for managing metadata-
	// server load (from the authors' earlier Cray User's Group work).
	// Zero disables staggering.
	StaggerOpens time.Duration

	// NoGlobalIndex skips the coordinator's merged global index file at the
	// end of the step (the paper's deployed configuration, which used
	// characteristics-based search of the per-file indices instead). The
	// merged index is still returned in the step result.
	NoGlobalIndex bool

	// DisableAdaptation turns the coordinator's work-shifting off while
	// keeping everything else (grouping, serialisation, indexing) intact —
	// a pure ablation of the adaptive mechanism itself.
	DisableAdaptation bool

	// HistoryAware enables the paper's future-work extension ("more
	// complex and/or state-rich methods for system adaptation, including
	// those that take into account past usage data"): instead of serving
	// idle targets in scan order, the coordinator dispatches adaptive
	// writes to the idle target with the highest observed bandwidth
	// (bytes written / completion time), so redirected work prefers the
	// fastest areas of the file system.
	HistoryAware bool
}

// Adaptive is the adaptive IO method bound to a world and file system.
type Adaptive struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	// The kernel's slabs of the per-rank and per-message carves, taken in
	// New; the per-step carves look their slabs up once per step.
	machines *simkernel.Slab[stepCont]
	scs      *simkernel.Slab[scCont]
	msgs     *simkernel.Slab[scMsg]
	waits    *simkernel.Slab[simkernel.WaitGroup]

	steps iomethod.Steps[stepState]
}

// msg carves a zeroed envelope of the given kind.
//
//repro:hotpath
func (a *Adaptive) msg(kind scKind) *scMsg {
	m := a.msgs.New()
	m.kind = kind
	return m
}

// New builds an Adaptive method. Its step state is carved from the world's
// kernel, one slab per type (simkernel.Local[simkernel.Slab[T]]), so what
// its steps return is valid until the kernel's next Reset. The zero Config
// selects all storage targets, one writer per target, no stagger, and
// global-index writing.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Adaptive, error) {
	if err := iomethod.Targets("core", &cfg.OSTs, fs); err != nil {
		return nil, err
	}
	if cfg.WritersPerTarget == 0 {
		cfg.WritersPerTarget = 1
	}
	if cfg.WritersPerTarget < 0 {
		return nil, fmt.Errorf("core: negative WritersPerTarget")
	}
	k := w.Kernel()
	return &Adaptive{
		w: w, fs: fs, cfg: cfg,
		machines: simkernel.Local[simkernel.Slab[stepCont]](k),
		scs:      simkernel.Local[simkernel.Slab[scCont]](k),
		msgs:     simkernel.Local[simkernel.Slab[scMsg]](k),
		waits:    simkernel.Local[simkernel.Slab[simkernel.WaitGroup]](k),
	}, nil
}

// Name implements iomethod.Method.
func (a *Adaptive) Name() string { return "ADAPTIVE" }

// stepState is the shared bookkeeping of one collective output step.
type stepState struct {
	iomethod.Step
	groups    [][]int // writer ranks per group
	groupOf   []int   // rank -> group
	files     []*pfs.File
	fileNames []string
	dataOf    []iomethod.RankData
	cc        cCont  // the coordinator pump machine
	gidxName  string // precomputed global-index file name
}

// planGroups splits W ranks into contiguous groups, one per storage target,
// shrinking the group count when there are fewer writers than targets. The
// groups are sub-slices of one run of ranks carved from k's slabs.
func planGroups(k *simkernel.Kernel, W, targets int) [][]int {
	if targets > W {
		targets = W
	}
	gsize := (W + targets - 1) / targets
	numGroups := (W + gsize - 1) / gsize
	ranks := simkernel.Local[simkernel.Slab[int]](k).Take(W)
	for r := range ranks {
		ranks[r] = r
	}
	groups := simkernel.Local[simkernel.Slab[[]int]](k).Take(numGroups)
	for g := range groups {
		lo := g * gsize
		hi := min(lo+gsize, W)
		groups[g] = ranks[lo:hi:hi]
	}
	return groups
}

func (a *Adaptive) getStep(stepName string) *stepState {
	if st := a.steps.Get(stepName); st != nil {
		return st
	}
	W := a.w.Size()
	k := a.w.Kernel()
	groups := planGroups(k, W, len(a.cfg.OSTs))
	st := simkernel.Local[simkernel.Slab[stepState]](k).New()
	*st = stepState{
		groups:    groups,
		groupOf:   simkernel.Local[simkernel.Slab[int]](k).Take(W),
		files:     simkernel.Local[simkernel.Slab[*pfs.File]](k).Take(len(groups)),
		fileNames: simkernel.Local[simkernel.Slab[string]](k).Take(len(groups)),
		dataOf:    simkernel.Local[simkernel.Slab[iomethod.RankData]](k).Take(W),
		gidxName:  stepName + ".gidx.bp",
	}
	for g, members := range groups {
		for _, r := range members {
			st.groupOf[r] = g
		}
		st.fileNames[g] = fmt.Sprintf("%s.g%04d.bp", stepName, g)
	}
	a.steps.Open(k, st, &st.Step, stepName, W, st.fileNames)
	return st
}

// spawnSC launches the sub-coordinator loop (Algorithm 2) as a helper
// continuation process (scCont, pump.go) on the SC rank.
func (a *Adaptive) spawnSC(r *mpisim.Rank, st *stepState, g int, done *simkernel.WaitGroup) {
	s := a.scs.Reuse()
	s.arm(a, r, st, g, done)
	a.w.Kernel().SpawnCont(s)
}

// groupPhase is C's view of an SC's state (Algorithm 3).
type groupPhase int

const (
	phaseWriting groupPhase = iota
	phaseBusy
	phaseComplete
)

// spawnC launches the coordinator loop (Algorithm 3) as a helper
// continuation process (cCont, pump.go) on rank 0, like spawnSC.
func (a *Adaptive) spawnC(r *mpisim.Rank, st *stepState, done *simkernel.WaitGroup) {
	s := &st.cc
	s.arm(a, r, st, done)
	a.w.Kernel().SpawnCont(s)
}

// sortByDesc sorts xs in place by descending key[x] (stable insertion sort —
// target lists are short). Taking the key as a slice rather than a closure
// keeps the coordinator's dispatch path free of per-call closure allocation.
func sortByDesc(xs []int, key []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && key[xs[j]] > key[xs[j-1]]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
