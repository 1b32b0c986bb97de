// Package iomethod defines the common contract between the ADIOS-like
// middleware facade and its transport methods (the adaptive method of the
// paper's Section III, the tuned MPI-IO baseline it is evaluated against,
// and a plain POSIX file-per-process method).
//
// A Method executes one collective output step: every rank of a world runs
// the step machine BeginStepCont arms for it as a continuation; the method
// routes bytes to the file system and produces per-writer timings plus (for
// index-producing methods) a global index.
package iomethod

import (
	"repro/internal/bp"
	"repro/internal/mpisim"
	"repro/internal/pfs"
)

// VarSpec describes one variable block a rank contributes to an output
// step: its size and its data characteristics (carried into the index).
type VarSpec struct {
	Name  string
	Bytes int64
	Dims  []uint64
	Min   float64
	Max   float64
}

// RankData is the set of variable blocks one rank writes in a step.
type RankData struct {
	Vars []VarSpec
}

// TotalBytes sums the rank's block sizes.
func (d RankData) TotalBytes() int64 {
	var t int64
	for _, v := range d.Vars {
		t += v.Bytes
	}
	return t
}

// StepResult collects a completed output step's measurements. It is shared
// by all ranks of the step (the simulation is single-threaded under the
// kernel's handoff discipline, so plain fields suffice).
type StepResult struct {
	// WriterTimes[r] is rank r's IO time in seconds: from the step's timed
	// start (after the untimed open/create phase) until its data is written
	// and flushed — the span the application blocks on. Waiting for a
	// write slot under the adaptive method is included, as the application
	// is blocked during it.
	WriterTimes []float64

	// Elapsed is the full operation time in seconds: timed start until the
	// last writer, index writes, and closes have finished.
	Elapsed float64

	// TotalBytes is the payload written (excluding index bytes).
	TotalBytes float64

	// IndexBytes is the index metadata written (local + global).
	IndexBytes float64

	// Global is the merged global index (nil for methods without one).
	Global *bp.GlobalIndex

	// AdaptiveWrites counts writes redirected to a foreign storage target
	// (always zero for non-adaptive methods).
	AdaptiveWrites int

	// WriteFailures counts client write operations abandoned with
	// pfs.ErrTargetDown (a storage target was Dead past its timeout). The
	// adaptive method retries these elsewhere; baselines lose the data.
	WriteFailures int

	// Files is the number of data files produced.
	Files int

	// MDSOpenQueuePeak is the metadata server's queue high-water mark at
	// the end of the untimed open/create phase — the quantity the
	// stagger-open technique reduces.
	MDSOpenQueuePeak int

	// DrainElapsed, for asynchronous transports (staging), is the time
	// until the last byte and index actually reached the file system;
	// Elapsed then covers only the application-blocking span.
	DrainElapsed float64
}

// AggregateBW returns TotalBytes/Elapsed in bytes/sec.
func (r *StepResult) AggregateBW() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.TotalBytes / r.Elapsed
}

// Method is a collective output transport. Every rank of the world must
// run a step with the same step name, each passing its own data; a rank's
// step completes once its participation (including any coordination roles
// the rank carries) has finished. The StepResult pointer is the same object
// for all ranks of the step; it is fully populated once every rank has
// completed.
type Method interface {
	// Name identifies the method ("MPI", "ADAPTIVE", "POSIX", "STAGING").
	Name() string

	// BeginStepCont arms and returns rank r's machine for the collective
	// output step stepName. It performs no simulation work itself (no
	// events, no random draws), so a body may call it at any point before
	// first driving the machine.
	BeginStepCont(r *mpisim.Rank, stepName string, data RankData) StepCont
}

// Factory builds a method bound to a world and file system.
type Factory func(w *mpisim.World, fs *pfs.FileSystem) (Method, error)

// BuildEntries constructs the index records for a rank's block laid out
// contiguously starting at offset, returning the entries and the total
// bytes consumed.
func BuildEntries(rank int, offset int64, data RankData) ([]bp.VarEntry, int64) {
	// The Dims copies share one backing array: two allocations per rank per
	// step instead of one per variable (entries keep their own copy so the
	// index stays valid however the caller reuses the spec).
	nDims := 0
	for _, v := range data.Vars {
		nDims += len(v.Dims)
	}
	entries, _ := AppendEntries(
		make([]bp.VarEntry, 0, len(data.Vars)),
		make([]uint64, 0, nDims),
		rank, offset, data)
	return entries, data.TotalBytes()
}

// AppendEntries appends the records BuildEntries would produce onto
// entries, using dims as the shared Dims backing store, and returns both
// extended slices. Index mergers call it directly to build one
// cohort-sized allocation instead of per-rank intermediates; a dims
// regrowth mid-append leaves earlier entries aliasing the old backing
// array, which stays valid (entries never write through Dims).
func AppendEntries(entries []bp.VarEntry, dims []uint64, rank int, offset int64, data RankData) ([]bp.VarEntry, []uint64) {
	cur := offset
	for _, v := range data.Vars {
		dims = append(dims, v.Dims...)
		entries = append(entries, bp.VarEntry{
			Name:       v.Name,
			WriterRank: int32(rank),
			Offset:     cur,
			Length:     v.Bytes,
			Dims:       dims[len(dims)-len(v.Dims):],
			Min:        v.Min,
			Max:        v.Max,
		})
		cur += v.Bytes
	}
	return entries, dims
}
