// Package adios is the public middleware API of this reproduction, shaped
// after the ADIOS usage model the paper's adaptive IO method lives in:
// open an output step, declare variable writes (buffered), and close — the
// transport method moves the bytes at close time.
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
// Rank bodies are continuation machines (see WriteStep and CloseCont).
// Inside one, a step is:
//
//	f := io.Open(r, "restart.0001")
//	f.Write("rho", 16<<20, []uint64{128,128,128}, -1, 1)
//	f.Write("phi", 16<<20, []uint64{128,128,128}, 0, 2)
//	f.BeginCloseCont(&m.cc) // then drive m.cc.Step(c) and read m.cc.Result()
package adios

import (
	"fmt"
	"time"

	"repro/cluster"
	"repro/internal/bp"
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
	world  *cluster.World
	// last is the most recent step result handed out, so the ranks of one
	// step share one wrapper.
	last *StepResult
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
	switch opt.Method {
	case MethodMPI:
		m, err := mpiio.New(w.MPI(), fs, mpiio.Config{OSTs: opt.OSTs, SplitFiles: opt.MPISplitFiles})
		if err != nil {
			return nil, err
		}
		return &IO{method: m, world: w}, nil
	case MethodPOSIX:
		m, err := posix.New(w.MPI(), fs, posix.Config{OSTs: opt.OSTs})
		if err != nil {
			return nil, err
		}
		return &IO{method: m, world: w}, nil
	case MethodStaging:
		cfg := staging.Config{
			Nodes:       opt.StagingNodes,
			BufferBytes: opt.StagingBufferBytes,
			OSTs:        opt.OSTs,
		}
		if opt.StagingLeastLoaded {
			cfg.Policy = staging.DrainLeastLoaded
		}
		m, err := staging.New(w.MPI(), fs, cfg)
		if err != nil {
			return nil, err
		}
		return &IO{method: m, world: w}, nil
	case MethodAdaptive:
		cfg := core.Config{
			OSTs:              opt.OSTs,
			StaggerOpens:      opt.StaggerOpens,
			WritersPerTarget:  opt.WritersPerTarget,
			HistoryAware:      opt.HistoryAware,
			DisableAdaptation: opt.DisableAdaptation,
			NoGlobalIndex:     opt.NoGlobalIndex,
		}
		m, err := core.New(w.MPI(), fs, cfg)
		if err != nil {
			return nil, err
		}
		return &IO{method: m, world: w}, nil
	}
	return nil, fmt.Errorf("adios: unknown method %q", opt.Method)
}

// MethodName reports the active transport's name.
func (io *IO) MethodName() string { return io.method.Name() }

// File is one rank's handle on an output step: writes buffer variable
// declarations; the collective close (BeginCloseCont) performs the IO.
type File struct {
	io   *IO
	rank *cluster.Rank
	name string
	data iomethod.RankData
	done bool
}

// Open begins an output step for this rank. Every rank of the world must
// open the same step name and eventually close it (the transport write is
// collective).
func (io *IO) Open(r *cluster.Rank, stepName string) *File {
	return &File{io: io, rank: r, name: stepName}
}

// Write declares one variable block: its size, dimensions, and value-range
// characteristics (carried into the BP index for value-based search).
// Writes buffer locally — as in ADIOS — and move at the close.
func (f *File) Write(name string, bytes int64, dims []uint64, min, max float64) {
	if f.done {
		panic(fmt.Sprintf("adios: Write(%s) after Close on step %q", name, f.name))
	}
	f.data.Vars = append(f.data.Vars, iomethod.VarSpec{
		Name: name, Bytes: bytes, Dims: dims, Min: min, Max: max,
	})
}

// WriteData is Write for callers holding iomethod.VarSpec values already.
// The step keeps data, not a copy: it is read until the step's index is
// read or the cluster is reset, and must not change before then.
func (f *File) WriteData(data iomethod.RankData) {
	if f.done {
		panic(fmt.Sprintf("adios: WriteData after Close on step %q", f.name))
	}
	if len(f.data.Vars) == 0 {
		// Alias the caller's specs instead of copying; the three-index
		// slice caps the alias so any later Write reallocates rather than
		// scribbling on the caller's backing array.
		f.data.Vars = data.Vars[:len(data.Vars):len(data.Vars)]
		return
	}
	f.data.Vars = append(f.data.Vars, data.Vars...)
}

// StepResult wraps the transport result with convenience accessors. Its
// Index (from iomethod.StepResult) builds the step's global index on first
// read; the index is valid until the owning cluster's next Reset.
type StepResult struct {
	*iomethod.StepResult
}

// Lookup finds a variable block by name and writer rank (rank < 0 for any)
// in the step's index.
func (r *StepResult) Lookup(name string, rank int32) (bp.Location, bool) {
	g := r.Index()
	if g == nil {
		return bp.Location{}, false
	}
	return g.Lookup(name, rank)
}

// FindByValue returns blocks of a variable whose characteristics intersect
// [lo, hi] — the paper's interim search path in lieu of the global index.
func (r *StepResult) FindByValue(name string, lo, hi float64) []bp.Location {
	g := r.Index()
	if g == nil {
		return nil
	}
	return g.FindByValue(name, lo, hi)
}
