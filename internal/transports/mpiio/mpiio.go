// Package mpiio implements the ADIOS MPI-IO transport the paper evaluates
// adaptive IO against (Section III-A): the well-tuned baseline that buffers
// all output on the compute nodes and writes a single shared file.
//
// It carries the baseline's Lustre-specific optimisations from the authors'
// earlier work: every rank's buffered output is written as one contiguous
// block, and the shared file's stripe size is set to the block size so each
// rank's block lands on exactly one storage target. What it cannot escape is
// the Lustre 1.6 limit of 160 storage targets for a single file — with
// tens of thousands of writers that forces many writers per target
// (internal interference), and a transient slowdown of any one of the 160
// targets stalls every rank mapped to it (external interference), since the
// collective completes only when the slowest writer does.
//
// The SplitFiles option implements the alternative the paper's Section II-3
// discusses: splitting the output into several shared files so the
// application can reach the whole file system. As the paper argues (and the
// tests verify), this alleviates internal interference but solves neither
// it nor external interference.
package mpiio

import (
	"fmt"

	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Config tunes the MPI-IO baseline.
type Config struct {
	// OSTs are the storage targets available; each shared file uses at most
	// the file system's MaxStripeCount of them (160 on the paper's Lustre
	// 1.6). Empty means targets 0..N-1.
	OSTs []int

	// SplitFiles splits the output into this many shared files, each on
	// its own slice of storage targets — the Section II-3 alternative
	// ("splitting output into 5 parts would enable an application to take
	// full advantage of the entire file system's resources"). Zero or one
	// means a single shared file.
	SplitFiles int
}

// Method is the MPI-IO transport bound to a world and file system.
type Method struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	machines *simkernel.Slab[stepCont] // the kernel's, for the per-rank carve

	steps iomethod.Steps[stepState]
}

type stepState struct {
	iomethod.Step
	files     []*pfs.File // per cohort
	fileNames []string    // per cohort
	offsets   []int64     // per rank, within its cohort's file
	sizes     []int64     // per rank

	arrivedWG *simkernel.WaitGroup   // all ranks registered their sizes
	writersWG []*simkernel.WaitGroup // per cohort: writers finished
	closedWG  []*simkernel.WaitGroup // per cohort: footer written, closed
}

// New builds the MPI-IO method. Its step state is carved from the world's
// kernel, one slab per type (simkernel.Local[simkernel.Slab[T]]), so what
// its steps return is valid until the kernel's next Reset.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Method, error) {
	if err := iomethod.Targets("mpiio", &cfg.OSTs, fs); err != nil {
		return nil, err
	}
	if cfg.SplitFiles < 0 {
		return nil, fmt.Errorf("mpiio: negative SplitFiles")
	}
	if cfg.SplitFiles == 0 {
		cfg.SplitFiles = 1
	}
	if cfg.SplitFiles > w.Size() {
		cfg.SplitFiles = w.Size()
	}
	return &Method{w: w, fs: fs, cfg: cfg, machines: simkernel.Local[simkernel.Slab[stepCont]](w.Kernel())}, nil
}

// Name implements iomethod.Method.
func (m *Method) Name() string { return "MPI" }

// cohortSize is the ranks per file cohort: cohorts are contiguous blocks of
// ranks, the last one possibly short.
func (m *Method) cohortSize() int { return (m.w.Size() + m.cfg.SplitFiles - 1) / m.cfg.SplitFiles }

// cohortRanks returns the ranks of cohort i.
func (m *Method) cohortRanks(i int) (lo, hi int) {
	per := m.cohortSize()
	return i * per, min(i*per+per, m.w.Size())
}

// cohortOSTs returns cohort i's storage-target slice, capped at the
// single-file stripe limit. Cohorts take consecutive runs of per targets
// (one target each when there are more cohorts than targets), so a run
// never wraps past the end of the list and is a view of it.
func (m *Method) cohortOSTs(i int) []int {
	osts := m.cfg.OSTs
	per := max(1, len(osts)/m.cfg.SplitFiles)
	lo := (i * per) % len(osts)
	hi := lo + min(per, m.fs.Cfg.MaxStripeCount)
	return osts[lo:hi:hi]
}

// StripeTargets reports the targets the first shared file will use.
func (m *Method) StripeTargets() []int { return m.cohortOSTs(0) }

// Files reports how many shared files a step will produce.
func (m *Method) Files() int { return m.cfg.SplitFiles }

func (m *Method) getStep(stepName string) *stepState {
	if st := m.steps.Get(stepName); st != nil {
		return st
	}
	W := m.w.Size()
	nFiles := m.cfg.SplitFiles
	k := m.w.Kernel()
	int64s := simkernel.Local[simkernel.Slab[int64]](k)
	wgs := simkernel.Local[simkernel.Slab[*simkernel.WaitGroup]](k)
	waits := simkernel.Local[simkernel.Slab[simkernel.WaitGroup]](k)
	st := simkernel.Local[simkernel.Slab[stepState]](k).New()
	*st = stepState{
		files:     simkernel.Local[simkernel.Slab[*pfs.File]](k).Take(nFiles),
		fileNames: simkernel.Local[simkernel.Slab[string]](k).Take(nFiles),
		offsets:   int64s.Take(W),
		sizes:     int64s.Take(W),
		writersWG: wgs.Take(nFiles),
		closedWG:  wgs.Take(nFiles),
		arrivedWG: simkernel.TakeWaitGroup(waits, W),
	}
	for i := 0; i < nFiles; i++ {
		lo, hi := m.cohortRanks(i)
		st.fileNames[i] = fileName(stepName, i, nFiles)
		st.writersWG[i] = simkernel.TakeWaitGroup(waits, hi-lo)
		st.closedWG[i] = simkernel.TakeWaitGroup(waits, 1)
	}
	m.steps.Open(k, st, &st.Step, stepName, W, st.fileNames)
	return st
}

// fileName names cohort i's shared file.
func fileName(stepName string, cohort, total int) string {
	if total == 1 {
		return stepName + ".bp"
	}
	return fmt.Sprintf("%s.part%02d.bp", stepName, cohort)
}
