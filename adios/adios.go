// Package adios is the public middleware API of this reproduction, shaped
// after the ADIOS usage model the paper's adaptive IO method lives in:
// every rank opens a named output step, hands over its block, and closes
// collectively — the transport method moves the bytes at close time.
//
// Three transport methods are provided, selected per IO instance exactly as
// ADIOS selects them per group:
//
//   - MethodMPI — the tuned MPI-IO baseline: one shared file, buffered
//     contiguous blocks, stripe-aligned placement, limited to 160 storage
//     targets by Lustre 1.6 (the paper's comparison baseline).
//   - MethodPOSIX — file per process on round-robin targets (IOR-style).
//   - MethodAdaptive — the paper's contribution: per-target writer groups
//     with sub-coordinators, a coordinator that shifts queued writers from
//     slow targets to already-finished fast ones, and local + global BP
//     index generation.
//
// Rank bodies are continuation machines, and one output step of a rank is
// one WriteStep, launched on every rank:
//
//	var out adios.StepOut
//	w.LaunchCont(func(i int) cluster.RankCont {
//		return &adios.WriteStep{IO: io, Step: "restart.0001", PerRank: shape.Rank, Out: &out}
//	})
//	if _, err := c.Run(); err != nil { ... }
//	loc, ok := out.Result.Index().Lookup("rho", 3)
package adios

import (
	"fmt"
	"time"

	"repro/cluster"
	"repro/internal/core"
	"repro/internal/iomethod"
	"repro/internal/transports/mpiio"
	"repro/internal/transports/posix"
	"repro/internal/transports/staging"
)

// Method names a transport.
type Method string

// Available transports.
const (
	MethodMPI      Method = "MPI"
	MethodPOSIX    Method = "POSIX"
	MethodAdaptive Method = "ADAPTIVE"
	// MethodStaging is the data-staging alternative the paper analyzes in
	// Section II-3: asynchronous, but bounded by staging-buffer space and
	// still exposed to file-system interference on the drain side.
	MethodStaging Method = "STAGING"
)

// Options configures an IO instance.
type Options struct {
	// Method selects the transport (default MethodAdaptive).
	Method Method

	// OSTs restricts the storage targets used (nil = all; the MPI method
	// additionally truncates to the file system's single-file stripe
	// limit).
	OSTs []int

	// StaggerOpens spaces file creates to spare the metadata server
	// (adaptive method only).
	StaggerOpens time.Duration

	// WritersPerTarget generalises the adaptive method's one-writer-per-
	// target rule (adaptive method only; default 1).
	WritersPerTarget int

	// NoGlobalIndex skips the coordinator's global index file (adaptive
	// method only), matching the paper's deployed interim configuration.
	NoGlobalIndex bool

	// HistoryAware enables the future-work extension: the coordinator
	// dispatches adaptive writes to the fastest observed idle target
	// rather than in scan order (adaptive method only).
	HistoryAware bool

	// DisableAdaptation keeps the adaptive method's structure (groups,
	// per-target serialisation, indexing) but turns the coordinator's
	// work-shifting off — the pure ablation of the mechanism.
	DisableAdaptation bool

	// StagingNodes, StagingBufferBytes and StagingLeastLoaded tune the
	// staging method (zero values pick its defaults; LeastLoaded switches
	// the drain placement to the adaptive-flavoured policy).
	StagingNodes       int
	StagingBufferBytes float64
	StagingLeastLoaded bool

	// MPISplitFiles splits the MPI method's output into this many shared
	// files (the Section II-3 alternative for reaching the whole file
	// system past the per-file stripe limit). MPI method only.
	MPISplitFiles int
}

// IO is a configured transport bound to a cluster and world, shared by all
// ranks (mirroring an ADIOS group declaration).
type IO struct {
	method iomethod.Method
}

// NewIO builds an IO instance. Call it once before LaunchCont and share
// the pointer across ranks. Every method carves its step state from the
// slabs of the cluster's kernel, so what its steps return (the global index
// in particular) is valid until the cluster's next Reset.
func NewIO(c *cluster.Cluster, w *cluster.World, opt Options) (*IO, error) {
	if opt.Method == "" {
		opt.Method = MethodAdaptive
	}
	fs := c.FileSystem()
	var m iomethod.Method
	var err error
	switch opt.Method {
	case MethodMPI:
		m, err = mpiio.New(w.MPI(), fs, mpiio.Config{OSTs: opt.OSTs, SplitFiles: opt.MPISplitFiles})
	case MethodPOSIX:
		m, err = posix.New(w.MPI(), fs, posix.Config{OSTs: opt.OSTs})
	case MethodStaging:
		cfg := staging.Config{
			Nodes:       opt.StagingNodes,
			BufferBytes: opt.StagingBufferBytes,
			OSTs:        opt.OSTs,
		}
		if opt.StagingLeastLoaded {
			cfg.Policy = staging.DrainLeastLoaded
		}
		m, err = staging.New(w.MPI(), fs, cfg)
	case MethodAdaptive:
		cfg := core.Config{
			OSTs:              opt.OSTs,
			StaggerOpens:      opt.StaggerOpens,
			WritersPerTarget:  opt.WritersPerTarget,
			HistoryAware:      opt.HistoryAware,
			DisableAdaptation: opt.DisableAdaptation,
			NoGlobalIndex:     opt.NoGlobalIndex,
		}
		m, err = core.New(w.MPI(), fs, cfg)
	default:
		return nil, fmt.Errorf("adios: unknown method %q", opt.Method)
	}
	if err != nil {
		return nil, err
	}
	return &IO{method: m}, nil
}

// StepResult is a step's shared result: every rank of the step reads the
// same one. Its Index builds the step's global index on first read; the
// index is valid until the owning cluster's next Reset.
type StepResult = iomethod.StepResult
