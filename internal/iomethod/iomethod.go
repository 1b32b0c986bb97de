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

import "repro/internal/mpisim"

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
	// first driving the machine. The step's index log keeps data, not a
	// copy: it is read until the step's index is read or the cluster is
	// reset, and must not change before then.
	BeginStepCont(r *mpisim.Rank, stepName string, data RankData) StepCont
}
