// Package cluster is the public entry point for constructing a simulated
// petascale system: a machine preset (Jaguar, Franklin, XTP — the three
// systems measured in the paper) or a custom configuration, with optional
// production background noise and artificial interference workloads.
//
// A Cluster owns the deterministic simulation kernel, the parallel file
// system model, and any interference processes. Applications are sets of
// ranks launched through NewWorld/LaunchCont, one continuation machine per
// rank; drive everything with Run or RunUntilDone. The memory a replica's
// worlds, IOR writers and transport steps run in is local to the kernel
// (simkernel.Local), so Reset rewinds it with the kernel and a pooled
// world's next replica reuses it.
//
//	c, _ := cluster.Preset("jaguar", cluster.Config{Seed: 1})
//	w := c.NewWorld(4096)
//	io, _ := adios.NewIO(c, w, adios.Options{Method: adios.MethodAdaptive})
//	var out adios.StepOut
//	j := w.LaunchCont(func(i int) cluster.RankCont {
//		return &adios.WriteStep{IO: io, Step: "restart", PerRank: data, Out: &out}
//	})
//	c.RunUntilDone(j)
package cluster

import (
	"fmt"
	"time"

	"repro/internal/interference"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
	"repro/internal/trace"
)

// Config adjusts a cluster on top of a machine preset (zero values keep the
// preset's calibration).
type Config struct {
	// Seed drives every stochastic component; the same seed reproduces the
	// same simulation exactly.
	Seed int64

	// NumOSTs overrides the storage-target count (useful for scaled-down
	// experiments that preserve per-target ratios).
	NumOSTs int

	// ProductionNoise enables the machine's background-load profile (other
	// jobs, analysis clusters). Presets for production machines (Jaguar,
	// Franklin) define a calibrated profile; it still must be switched on
	// explicitly so that clean measurements are the default.
	ProductionNoise bool

	// MessageLatency is the rank-to-rank control-message latency
	// (default 5µs).
	MessageLatency time.Duration

	// Failures scripts deterministic storage failures for the replica: OST
	// crash/rebuild episodes and MDS stall windows at declared virtual
	// times (see interference.FailureConfig). The zero value injects
	// nothing — failure-free replicas are bit-identical to clusters built
	// before the failure lifecycle existed.
	Failures interference.FailureConfig
}

// Cluster is a simulated machine instance.
type Cluster struct {
	name    string //repro:reset-skip identity, fixed at construction
	kernel  *simkernel.Kernel
	fs      *pfs.FileSystem
	machine machines.Machine //repro:reset-skip immutable machine description; Reset re-derives configs from it
	msgLat  time.Duration

	// noise and failures are always present and inert when the replica's
	// Config disables them, so their streams and event closures survive
	// noise-off and failure-free replicas.
	noise    *interference.Noise
	failures *interference.Failures

	// key identifies the pool bucket this world was rented from (set by
	// Pool.Rent; empty for worlds built outside a pool).
	key poolKey //repro:reset-skip pool-bucket identity, owned by Pool.Rent/Return
}

// Preset builds a cluster from a machine preset name: "jaguar", "franklin",
// or "xtp" (case-insensitive on the first letter as a convenience). This is
// the single error-returning construction path; the named wrappers below
// delegate to it via mustPreset.
func Preset(name string, cfg Config) (*Cluster, error) {
	m, ok := machines.ByName(name, cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown machine %q (have %v)", name, machines.Names())
	}
	return fromMachine(m, cfg)
}

// mustPreset wraps Preset for the named constructors, whose machine names
// are known and whose preset configurations are validated by tests — the
// only errors Preset can return for them are programming mistakes, so
// panicking is documented behaviour rather than an API inconsistency.
func mustPreset(name string, cfg Config) *Cluster {
	c, err := Preset(name, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Jaguar builds the ORNL Jaguar preset (672-OST Lustre scratch). It cannot
// fail for valid Config values and panics on programming errors; use
// Preset("jaguar", cfg) for an error-returning path.
func Jaguar(cfg Config) *Cluster { return mustPreset("jaguar", cfg) }

// Franklin builds the NERSC Franklin preset (96-OST Lustre). It cannot fail
// for valid Config values and panics on programming errors; use
// Preset("franklin", cfg) for an error-returning path.
func Franklin(cfg Config) *Cluster { return mustPreset("franklin", cfg) }

// XTP builds the Sandia XTP preset (40-blade PanFS). It cannot fail for
// valid Config values and panics on programming errors; use
// Preset("xtp", cfg) for an error-returning path.
func XTP(cfg Config) *Cluster { return mustPreset("xtp", cfg) }

// fsConfigFor resolves the file-system configuration a Config implies on
// machine m (shared by construction and Reset so both produce identical
// worlds).
func fsConfigFor(m machines.Machine, cfg Config) pfs.Config {
	fsCfg := m.FS
	fsCfg.Seed = cfg.Seed
	if cfg.NumOSTs > 0 {
		fsCfg.NumOSTs = cfg.NumOSTs
	}
	if cfg.Failures.Enabled && cfg.Failures.DeadTimeout > 0 {
		fsCfg.DeadTimeout = cfg.Failures.DeadTimeout
	}
	return fsCfg
}

// noiseConfigFor resolves the production-noise configuration a Config
// implies on machine m (shared by construction and Reset).
func noiseConfigFor(m machines.Machine, cfg Config) interference.NoiseConfig {
	noiseCfg := m.Noise
	noiseCfg.Seed = cfg.Seed + 1
	if !noiseCfg.Enabled {
		noiseCfg = interference.DefaultProduction(cfg.Seed + 1)
	}
	return noiseCfg
}

// fromMachine builds the kernel, file system and interference generators
// once and arms them with the same code Reset runs.
func fromMachine(m machines.Machine, cfg Config) (*Cluster, error) {
	k := simkernel.New()
	fs, err := pfs.New(k, fsConfigFor(m, cfg))
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		name:    m.Name,
		kernel:  k,
		fs:      fs,
		machine: m,
		noise:   interference.Start(fs, interference.NoiseConfig{}),
	}
	if c.failures, err = interference.StartFailures(fs, interference.FailureConfig{}); err != nil {
		return nil, err
	}
	if err := c.arm(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-arms the cluster for a new replica without rebuilding it,
// producing a world indistinguishable from Preset(c.Name(), cfg): the kernel
// is reset (recycling every process shell and rewinding its replica
// memory), the file system reseeded in place, and production noise and the
// failure script re-armed to match cfg. A Reset world runs a replica
// bit-identically to a freshly constructed one — the determinism contract
// the pool's golden tests pin down.
//
// On error the world is unusable (the kernel has already been reset) and
// must be Shutdown, which is what Pool.Rent does.
//
//repro:hotpath
func (c *Cluster) Reset(cfg Config) error {
	c.kernel.Reset()
	if err := c.fs.Reset(fsConfigFor(c.machine, cfg)); err != nil {
		return err
	}
	return c.arm(cfg)
}

// arm sets the cluster's per-replica state on a reset kernel and file
// system: the message latency, production noise and the failure script.
// Construction and Reset both end in it.
//
//repro:hotpath
func (c *Cluster) arm(cfg Config) error {
	c.msgLat = cfg.MessageLatency
	var noiseCfg interference.NoiseConfig
	if cfg.ProductionNoise {
		noiseCfg = noiseConfigFor(c.machine, cfg)
	}
	c.noise.Reset(noiseCfg)
	return c.failures.Reset(cfg.Failures)
}

// Name returns the machine preset's name.
func (c *Cluster) Name() string { return c.name }

// NumOSTs returns the number of storage targets.
func (c *Cluster) NumOSTs() int { return len(c.fs.OSTs) }

// ExperimentOSTs returns the target count the paper's experiments use on
// this machine (512 of Jaguar's 672, all of Franklin's 96-OST testbed's 80
// writer slots, all 40 XTP blades).
func (c *Cluster) ExperimentOSTs() int {
	n := c.machine.ExperimentOSTs
	if n > len(c.fs.OSTs) {
		n = len(c.fs.OSTs)
	}
	return n
}

// FileSystem exposes the underlying parallel file system model (an internal
// type; callers hold it opaquely or pass it back into this module's APIs).
func (c *Cluster) FileSystem() *pfs.FileSystem { return c.fs }

// Kernel exposes the simulation kernel (internal type, same caveat).
func (c *Cluster) Kernel() *simkernel.Kernel { return c.kernel }

// StartArtificialInterference launches the paper's Section IV interference
// program: procsPerOST continuous writers of chunkBytes each on the given
// targets (defaults: the paper's 8 targets × 3 procs × 1 GB when osts is
// nil and the other arguments are zero). The writers run until the replica
// ends; the returned handle counts their completed writes.
func (c *Cluster) StartArtificialInterference(osts []int, procsPerOST int, chunkBytes float64) *interference.Artificial {
	cfg := interference.ArtificialConfig{OSTs: osts, ProcsPerOST: procsPerOST, ChunkBytes: chunkBytes}
	return interference.StartArtificial(c.fs, cfg)
}

// SlowOST degrades one storage target to the given service fraction —
// a deterministic way to stage the imbalance the paper measures.
func (c *Cluster) SlowOST(idx int, factor float64) {
	c.fs.OST(idx).SetSlowFactor(factor)
}

// Trace starts sampling the storage system every interval virtual seconds,
// returning a tracer whose renderers draw activity/slowness heatmaps and
// throughput timelines (see internal/trace).
func (c *Cluster) Trace(intervalSeconds float64) *trace.Tracer {
	return trace.Start(c.fs, intervalSeconds)
}

// NewWorld creates a set of ranks on this cluster.
func (c *Cluster) NewWorld(ranks int) *World {
	return &World{c: c, w: mpisim.NewWorld(c.kernel, ranks, mpisim.Options{Latency: c.msgLat})}
}

// NewJobWorld creates a set of ranks for one application of a co-scheduled
// job mix: the world's processes are tagged with the job's file-system id
// (from pfs.FileSystem.RegisterJob), so the storage layer attributes their
// traffic. Multiple job worlds share the cluster's kernel
// and file system; each has its own barrier and mailbox state.
func (c *Cluster) NewJobWorld(job int, ranks int) *World {
	return &World{c: c, w: mpisim.NewWorld(c.kernel, ranks, mpisim.Options{Latency: c.msgLat, Job: job})}
}

// Run drives the simulation until no work remains (or Stop is called) and
// returns the final virtual time in seconds. Interference processes run
// forever; use RunUntilDone for workloads sharing a kernel with them.
func (c *Cluster) Run() float64 {
	return c.kernel.Run().Seconds()
}

// RunFor drives the simulation for d of virtual time.
func (c *Cluster) RunFor(d time.Duration) float64 {
	return c.kernel.RunUntil(c.kernel.Now() + simkernel.Time(d)).Seconds()
}

// RunUntilDone drives the simulation until the given world's launched ranks
// have all completed, then stops (leaving noise/interference processes
// suspended). It returns the final virtual time in seconds.
func (c *Cluster) RunUntilDone(wg *Join) float64 {
	c.kernel.SpawnWait(wg.wg, c.kernel.Stop)
	c.kernel.Run()
	return c.kernel.Now().Seconds()
}

// Shutdown drops all simulation processes; call when done with the
// cluster.
func (c *Cluster) Shutdown() { c.kernel.Shutdown() }

// Now returns the current virtual time in seconds.
func (c *Cluster) Now() float64 { return c.kernel.Now().Seconds() }

// World is a communicator of ranks on a cluster.
type World struct {
	c *Cluster
	w *mpisim.World
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.w.Size() }

// Cluster returns the owning cluster.
func (w *World) Cluster() *Cluster { return w.c }

// MPI exposes the underlying message-passing world (internal type).
func (w *World) MPI() *mpisim.World { return w.w }

// Join tracks a launched application's completion.
type Join struct {
	wg *simkernel.WaitGroup
}

// Done reports whether all launched ranks have completed.
func (j *Join) Done() bool { return j.wg.Count() == 0 }

// Rank is one application process.
type Rank = mpisim.Rank

// RankCont is a run-to-completion rank body (see mpisim.RankCont).
type RankCont = mpisim.RankCont

// LaunchCont starts mk(i) on every rank as a run-to-completion
// continuation: the kernel resumes each body inline on every wakeup. Drive
// the cluster with Run (or RunUntilDone with the returned Join).
func (w *World) LaunchCont(mk func(i int) RankCont) *Join {
	return &Join{wg: w.w.LaunchCont(mk)}
}
