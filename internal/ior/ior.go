// Package ior reimplements the IOR synthetic benchmark as used in Section II
// of the paper: N writers using POSIX-IO, one file per writer, each file
// pinned to a fixed storage target with writers split evenly across targets,
// weak scaling in per-writer data size.
//
// As in the paper, reported times "specifically omit file open and close
// times": files are created before the timed region and the measured span
// covers only the write phase (optionally including an explicit flush, which
// the Section IV methodology adds).
package ior

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/simkernel"
	"repro/internal/stats"
)

// Mode selects the file organisation.
type Mode int

const (
	// FilePerProcess is the paper's configuration: each writer owns a file
	// pinned to one storage target (stripe count 1).
	FilePerProcess Mode = iota
	// SharedFile puts all writers into one file striped across the target
	// set (an MPI-IO-style organisation, provided for comparison).
	SharedFile
)

// Config describes one IOR run.
type Config struct {
	// Writers is the number of writer processes.
	Writers int
	// OSTs is the set of storage targets to spread writers across; nil
	// means targets 0..NumOSTs-1 capped at the file-system size.
	OSTs []int
	// BytesPerWriter is the per-process data size (weak scaling).
	BytesPerWriter float64
	// Mode selects file-per-process (default) or shared-file.
	Mode Mode
	// Flush, when true, includes an explicit flush in the timed region
	// (the paper's Section IV methodology; Section II omits it so that
	// cache-absorbed small writes show their cache benefit).
	Flush bool
	// Job is the instance's job id (pfs.FileSystem.RegisterJob; 0 is the
	// unattributed bucket). Its writers carry it, so the file system
	// attributes their traffic to the job, and it names their files, which
	// keeps the files of instances sharing one file system apart.
	Job int
}

// Result reports one run's measurements.
type Result struct {
	// WriterTimes is each writer's time in seconds for its timed region.
	WriterTimes []float64
	// TotalBytes is the bytes written across all writers.
	TotalBytes float64
	// Elapsed is the wall time of the IO phase: max over writers (overall
	// write time is determined by the slowest writer, as the paper notes).
	Elapsed float64
	// AggregateBW is TotalBytes / Elapsed in bytes/sec.
	AggregateBW float64
	// PerWriterBW is each writer's bytes/sec.
	PerWriterBW []float64
	// ImbalanceFactor is the slowest/fastest write-time ratio (Section II).
	ImbalanceFactor float64
	// FailedWriters counts writers whose write was abandoned with
	// pfs.ErrTargetDown (their bytes are excluded from TotalBytes).
	FailedWriters int
}

// summarize fills the derived fields from WriterTimes and TotalBytes.
func (r *Result) summarize(bytesPerWriter float64) {
	r.Elapsed = 0
	r.PerWriterBW = make([]float64, len(r.WriterTimes))
	for i, t := range r.WriterTimes {
		if t > r.Elapsed {
			r.Elapsed = t
		}
		if t > 0 {
			r.PerWriterBW[i] = bytesPerWriter / t
		}
	}
	if r.Elapsed > 0 {
		r.AggregateBW = r.TotalBytes / r.Elapsed
	}
	r.ImbalanceFactor = stats.ImbalanceFactor(r.WriterTimes)
}

// MeanPerWriterBW returns the average per-writer bandwidth.
func (r *Result) MeanPerWriterBW() float64 {
	return stats.Summarize(r.PerWriterBW).Mean
}

// Run is a launched IOR instance; read Result after the kernel has drained.
type Run struct {
	cfg    Config
	fs     *pfs.FileSystem
	result Result
	err    error // the first create error, which fails the run
	done   *simkernel.WaitGroup
}

// Done reports whether all writers have finished.
func (r *Run) Done() bool { return r.done.Count() == 0 }

// Err reports why the run failed, or nil: a writer's file could not be
// created, so no writer wrote. Valid once Done.
func (r *Run) Err() error { return r.err }

// OnDone spawns a watcher on the kernel that calls fn once all of the run's
// writers have finished, so a job mix records the run's end time.
func (r *Run) OnDone(k *simkernel.Kernel, fn func()) {
	k.SpawnWait(r.done, fn)
}

// Result returns the measurements; it panics if writers are still running.
func (r *Run) Result() Result {
	if !r.Done() {
		panic("ior: Result read before run completed")
	}
	res := r.result
	res.summarize(r.cfg.BytesPerWriter)
	return res
}

// writers is the slab IOR writer machines and each launched run's barrier
// and join come from. Each kernel has one (simkernel.Local), reset by the
// kernel's Reset, so a warmed replica re-arms the writers (and their ops'
// scratch) and the wait lists of the previous one instead of allocating
// them; Reset must not run while a launched writer is live.
type writers struct {
	slab  simkernel.Slab[iorWriter]
	syncs simkernel.Slab[runSync]
	names map[int][]string //repro:reset-skip FilePerProcess file names by job id; a name depends only on the job and the writer's index, so it outlives replicas
}

// runSync is one launched run's primitives: ready counts the writers whose
// files exist, start releases them all at once, and done counts the
// writers still running.
type runSync struct {
	ready, done simkernel.WaitGroup
	start       simkernel.Signal
}

// Reset frees every writer launched so far for reuse.
func (ws *writers) Reset() {
	ws.slab.Reset()
	ws.syncs.Reset()
}

// Launch starts an IOR instance on the file system's kernel and returns a
// handle. Files are created (untimed), writers synchronise on a barrier,
// then write simultaneously; a failed create fails the run (see Err).
// Drive the kernel to completion before reading Err and the Result. The
// writers come from the kernel's writer slab, so the run is valid until the
// kernel's next Reset.
func Launch(fs *pfs.FileSystem, cfg Config) (*Run, error) {
	if cfg.Writers <= 0 {
		return nil, fmt.Errorf("ior: writers must be positive")
	}
	if cfg.BytesPerWriter < 0 {
		return nil, fmt.Errorf("ior: negative data size")
	}
	if cfg.Job < 0 {
		return nil, fmt.Errorf("ior: negative job id")
	}
	osts := cfg.OSTs
	if len(osts) == 0 {
		n := len(fs.OSTs)
		if cfg.Writers < n {
			n = cfg.Writers
		}
		osts = make([]int, n)
		for i := range osts {
			osts[i] = i
		}
	}
	for _, o := range osts {
		if o < 0 || o >= len(fs.OSTs) {
			return nil, fmt.Errorf("ior: OST %d out of range", o)
		}
	}

	ws := simkernel.Local[writers](fs.K)
	s := ws.syncs.Reuse()
	s.ready.Arm()
	s.done.Arm()
	s.start.Arm()
	s.ready.Add(cfg.Writers)
	s.done.Add(cfg.Writers)
	run := &Run{cfg: cfg, fs: fs, done: &s.done}
	run.result.WriterTimes = make([]float64, cfg.Writers)

	// A starter process releases the writers once all files exist,
	// emulating MPI_Barrier after the untimed open phase.
	fs.K.SpawnWait(&s.ready, s.start.Broadcast)
	ws.launch(run, osts, &s.ready, &s.start)
	return run, nil
}

// Execute launches an IOR instance on a fresh region of virtual time and
// runs the kernel until it completes, returning the measurements. Noise and
// interference already on the kernel keep running concurrently; a writer
// that can never finish fails the run with a *simkernel.StuckError.
func Execute(fs *pfs.FileSystem, cfg Config) (Result, error) {
	run, err := Launch(fs, cfg)
	if err != nil {
		return Result{}, err
	}
	fs.K.Run()
	if err := fs.K.Stuck(); err != nil {
		return Result{}, err
	}
	if run.err != nil {
		return Result{}, run.err
	}
	return run.Result(), nil
}
