// Package iomethod defines the common contract between the ADIOS-like
// middleware facade and its transport methods (the adaptive method of the
// paper's Section III, the tuned MPI-IO baseline it is evaluated against,
// and a plain POSIX file-per-process method).
//
// A Method executes one collective output step: every rank of a world runs
// the step machine BeginStepCont arms for it as a continuation; the method
// routes bytes to the file system and produces per-writer timings plus a
// log of where each block landed, from which the step's global index is
// built when read.
//
// Every method measures a step by one rule, kept here. Its Steps registry
// opens a step on the first rank's BeginStepCont, numbering it and arming
// its StepResult, and forgets it when the last rank returns, so a later
// step of the same name is a new step. The timed region starts when the
// first rank passes the method's untimed create phase (Step.Start, which
// also reads the metadata server's queue peak); a writer's time runs until
// its write stops blocking the application (Step.Wrote, see WriterTimes),
// and the step's Elapsed until its last rank returns (Steps.Return). The
// method keeps its own barriers, files and roles.
package iomethod

import (
	"repro/internal/bp"
	"repro/internal/mpisim"
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

// Shape is the layout every rank of a job writes in a step, as an ADIOS
// group declares it once for all writers: the same variables with the same
// sizes and dims on every rank. Only the Min/Max characteristics may differ
// by rank, through the shape's centre function. A Shape is immutable once
// built and may be shared by any number of steps, jobs and goroutines.
type Shape struct {
	vars     []VarSpec
	center   func(rank, v int) float64
	total    int64 // the block's bytes: the sum of the variables' Bytes
	indexLen int64 // the block's share of a local index: the sum of bp.EntryLen
}

// NewShape builds the shape of vars, which it keeps, not copies. If center
// is not nil, variable v's characteristics on rank are center(rank, v) plus
// its declared Min and Max; otherwise they are the declared ones on every
// rank.
func NewShape(center func(rank, v int) float64, vars ...VarSpec) *Shape {
	s := &Shape{vars: vars, center: center}
	for _, v := range vars {
		s.total += v.Bytes
		s.indexLen += int64(bp.EntryLen(v.Name, len(v.Dims)))
	}
	return s
}

// Rank returns rank's block of the shape.
func (s *Shape) Rank(rank int) RankData { return RankData{shape: s, rank: rank} }

// TotalBytes is the size of one rank's block.
func (s *Shape) TotalBytes() int64 { return s.total }

// RankData is the block one rank writes in a step: its job's shape and its
// rank. The zero RankData writes nothing.
type RankData struct {
	shape *Shape
	rank  int
}

// TotalBytes is the size of the rank's block.
func (d RankData) TotalBytes() int64 {
	if d.shape == nil {
		return 0
	}
	return d.shape.total
}

// NumVars is the number of variables in the rank's block.
func (d RankData) NumVars() int {
	if d.shape == nil {
		return 0
	}
	return len(d.shape.vars)
}

// Var returns variable v of the rank's block, with the rank's own
// characteristics. Its Dims are the shape's: do not change them.
func (d RankData) Var(v int) VarSpec {
	spec := d.shape.vars[v]
	if d.shape.center != nil {
		c := d.shape.center(d.rank, v)
		spec.Min, spec.Max = c+spec.Min, c+spec.Max
	}
	return spec
}

// StepResult collects a completed output step's measurements and logs
// where its blocks landed, from which Index builds the step's global index.
// It is shared by all ranks of the step (the simulation is single-threaded
// under the kernel's handoff discipline, so plain fields suffice).
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

	// IndexBytes is the index metadata written (local + global), charged
	// by the encoded length of the logged index without building it.
	IndexBytes float64

	// index logs where the step's blocks landed; Index builds the global
	// index from it.
	index indexLog

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
	// the timed start, once the untimed open/create phase is over (every
	// method records it) — the quantity the stagger-open technique reduces.
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
	// first driving the machine. The step's index log keeps data, whose
	// shape is immutable.
	BeginStepCont(r *mpisim.Rank, stepName string, data RankData) StepCont
}
