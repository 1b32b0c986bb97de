package scenario

import (
	"fmt"
	"time"

	"repro/adios"
	"repro/cluster"
	"repro/internal/interference"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/rngx"
	"repro/internal/simkernel"
	"repro/internal/stats"
)

// Sample is one replica's measurements, uniform across workload kinds
// (fields a kind does not produce stay zero).
type Sample struct {
	// Elapsed is the replica's measured wall time in simulated seconds
	// (write phase for the IO kinds, storm completion for openstorm).
	Elapsed float64
	// TotalBytes is the data written.
	TotalBytes float64
	// AggregateBW is TotalBytes / Elapsed in bytes/sec.
	AggregateBW float64
	// WriterTimes are the per-writer (or per-rank) seconds.
	WriterTimes []float64
	// PerWriterBW are the per-writer bandwidths (IOR kinds).
	PerWriterBW []float64
	// AdaptiveWrites counts redirected writes (app kind, adaptive method).
	AdaptiveWrites int
	// WriteFailures counts client writes abandoned with ErrTargetDown
	// against a dead storage target (app kind; the adaptive method retries
	// them elsewhere, the static baselines lose the data).
	WriteFailures int
	// FailedWriters counts IOR writers whose payload was lost to a dead
	// target (IOR kinds).
	FailedWriters int
	// QueuePeak is the metadata server's queue high-water mark (openstorm).
	QueuePeak int
	// Jobs are the per-job measurements of a job-mix replica, in spec
	// order (nil for the single-workload kinds).
	Jobs []JobSample
}

// JobSample is one job's measurement within a job-mix replica, attributed
// through the file system's per-job accounting.
type JobSample struct {
	// Name and Kind identify the job (JobSpec.Name, JobSpec.Kind).
	Name string
	Kind string
	// Ranks is the job's process count.
	Ranks int
	// Start is the job's first phase start in simulated seconds.
	Start float64
	// Elapsed is when the job's last phase completed (seconds from t=0).
	Elapsed float64
	// BytesWritten / BytesRead are the job's attributed data volumes.
	BytesWritten float64
	BytesRead    float64
	// MetaOps is the job's attributed metadata operation count.
	MetaOps int
	// BW is the job's achieved bandwidth: (written+read) over its active
	// span (Elapsed - Start).
	BW float64
}

// MeanPerWriterBW returns the average per-writer bandwidth.
func (s Sample) MeanPerWriterBW() float64 { return stats.Summarize(s.PerWriterBW).Mean }

// ImbalanceFactor returns slowest/fastest over the writer times.
func (s Sample) ImbalanceFactor() float64 { return stats.ImbalanceFactor(s.WriterTimes) }

// failureConfig materialises the spec's declared failure script for one
// resolved point (zero value when the point leaves it disarmed).
func (s *Scenario) failureConfig(on bool) interference.FailureConfig {
	fspec := s.Interference.Failures
	if !on || !fspec.declared() {
		return interference.FailureConfig{}
	}
	cfg := interference.FailureConfig{
		Enabled:     true,
		DeadTimeout: fspec.DeadTimeoutSeconds,
		MDSStallAt:  fspec.MDSStallAtSeconds,
		MDSStallFor: fspec.MDSStallSeconds,
		Episodes:    make([]interference.FailureEpisode, len(fspec.Episodes)),
	}
	for i, ep := range fspec.Episodes {
		cfg.Episodes[i] = interference.FailureEpisode{
			OST:        ep.OST,
			At:         ep.AtSeconds,
			DeadFor:    ep.DeadSeconds,
			RebuildFor: ep.RebuildSeconds,
			RebuildTax: ep.RebuildTax,
		}
	}
	return cfg
}

// execReplica runs one grid-point replica of the scenario. Every kind
// shares one world setup: rent the world from the worker's pool, stage the
// disturbance model — deterministic slow targets plus, when the point's
// condition asks for it, the artificial interference program — and attach
// the tracer; then the kind's body runs.
func (s *Scenario) execReplica(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, err := pool.Rent(cfg.machine, cluster.Config{
		Seed:            seed,
		NumOSTs:         cfg.numOSTs,
		ProductionNoise: cfg.noise,
		Failures:        s.failureConfig(cfg.failures),
	})
	if err != nil {
		return Sample{}, err
	}
	defer pool.Return(c)
	defer tc.finish()
	for _, so := range s.Interference.SlowOSTs {
		if so.Index < 0 || so.Index >= c.NumOSTs() {
			return Sample{}, fmt.Errorf("scenario: slow OST index %d out of range (machine has %d)", so.Index, c.NumOSTs())
		}
		c.SlowOST(so.Index, so.Factor)
	}
	if cfg.condition == ConditionInterference {
		// The paper's artificial interference: by default stripe count 8
		// (two applications at the default stripe count of 4), three 1 GB
		// writers per target.
		c.StartArtificialInterference(s.Interference.OSTs, s.Interference.ProcsPerOST, s.Interference.ChunkMB*pfs.MB)
	}
	tc.attach(c)

	switch cfg.kind {
	case KindApp:
		return execApp(c, cfg)
	case KindIOR:
		return execIOR(c, cfg)
	case KindPairedIOR:
		return execPairedIOR(c, cfg, seed)
	case KindOpenStorm:
		return execOpenStorm(c, cfg)
	case KindJobMix:
		return execJobMix(c, cfg)
	}
	return Sample{}, fmt.Errorf("scenario: unknown workload kind %q", cfg.kind)
}

// execApp executes one collective output step of an application through
// the adios middleware — the Section IV campaign shape.
func execApp(c *cluster.Cluster, cfg replicaCfg) (Sample, error) {
	w := c.NewWorld(cfg.procs)
	io, err := adios.NewIO(c, w, cfg.transport.adiosOptions())
	if err != nil {
		return Sample{}, err
	}
	var out adios.StepOut
	stepName := fmt.Sprintf("%s.out", cfg.transport.Method)
	steps := simkernel.Local[simkernel.Slab[adios.WriteStep]](c.Kernel())
	j := w.LaunchCont(func(i int) cluster.RankCont {
		s := steps.New()
		*s = adios.WriteStep{IO: io, Step: stepName, PerRank: cfg.perRank, Out: &out}
		return s
	})
	c.RunUntilDone(j)
	if out.Err != nil {
		return Sample{}, out.Err
	}
	res := out.Result
	if !j.Done() || res == nil {
		return Sample{}, fmt.Errorf("scenario: campaign did not complete")
	}
	return Sample{
		Elapsed:     res.Elapsed,
		AggregateBW: res.AggregateBW(),
		// Ownership transfers: the step result's per-writer slice is built
		// fresh for every step and nothing world-owned aliases it, so the
		// sample keeps it without a defensive copy.
		WriterTimes:    res.WriterTimes,
		TotalBytes:     res.TotalBytes,
		AdaptiveWrites: res.AdaptiveWrites,
		WriteFailures:  res.WriteFailures,
	}, nil
}

// adiosOptions maps the declarative transport onto the middleware options.
func (t Transport) adiosOptions() adios.Options {
	return adios.Options{
		Method:             adios.Method(t.Method),
		OSTs:               targetList(t.OSTs),
		StaggerOpens:       time.Duration(t.StaggerOpensMS * float64(time.Millisecond)),
		WritersPerTarget:   t.WritersPerTarget,
		HistoryAware:       t.HistoryAware,
		DisableAdaptation:  t.DisableAdaptation,
		NoGlobalIndex:      t.NoGlobalIndex,
		StagingNodes:       t.StagingNodes,
		StagingBufferBytes: t.StagingBufferMB * pfs.MB,
		StagingLeastLoaded: t.StagingLeastLoaded,
		MPISplitFiles:      t.MPISplitFiles,
	}
}

// execIOR runs one IOR benchmark sample in a clean environment — the shape
// of the Figure 1 grid cells and Table I's hourly tests.
func execIOR(c *cluster.Cluster, cfg replicaCfg) (Sample, error) {
	r, err := ior.Execute(c.FileSystem(), iorConfig(cfg))
	if err != nil {
		return Sample{}, err
	}
	return iorSample(r), nil
}

// execPairedIOR runs the XTP shape: one IOR alone, or two simultaneous IOR
// programs overlapping at a seed-varied phase, measuring the first.
func execPairedIOR(c *cluster.Cluster, cfg replicaCfg, seed int64) (Sample, error) {
	fs := c.FileSystem()
	iorCfg := iorConfig(cfg)

	// Join explicitly on the runs: noise, interference and a tracer's
	// sampler all run forever, so the kernel never drains by itself.
	k := c.Kernel()
	runs := new(simkernel.WaitGroup)
	runs.Add(1)
	k.SpawnWait(runs, k.Stop)

	iorCfg.Tag = "A"
	runA, err := ior.Launch(fs, iorCfg)
	if err != nil {
		return Sample{}, err
	}
	runA.OnDone(k, runs.Done)
	var launchErr error
	if cfg.withInterference {
		runs.Add(1)
		// The second job starts at a seed-varied offset within the first
		// job's run, as two batch jobs on a real machine overlap at an
		// arbitrary phase — the source of the up-to-43% variability the
		// paper measures on XTP.
		rng := rngx.NewNamed(seed, "xtp-phase")
		estimate := float64(cfg.writers) * cfg.bytes / (float64(len(fs.OSTs)) * fs.Cfg.DiskBW * 0.8)
		delay := rng.Uniform(0, estimate)
		k.AfterSeconds(delay, func() {
			bCfg := iorCfg
			bCfg.Tag = "B"
			runB, err := ior.Launch(fs, bCfg)
			if err != nil {
				launchErr = err
				k.Stop()
				return
			}
			runB.OnDone(k, runs.Done)
		})
	}
	k.Run()
	if launchErr != nil {
		return Sample{}, launchErr
	}
	if !runA.Done() {
		return Sample{}, fmt.Errorf("scenario: paired IOR did not complete")
	}
	return iorSample(runA.Result()), nil
}

// execOpenStorm has `writers` ranks create one file each (stagger-spaced)
// and measures the storm completion time and MDS queue peak.
func execOpenStorm(c *cluster.Cluster, cfg replicaCfg) (Sample, error) {
	fs := c.FileSystem()
	k := c.Kernel()
	wg := new(simkernel.WaitGroup)
	wg.Add(cfg.writers)
	var last simkernel.Time
	numOSTs := len(fs.OSTs)
	stagger := cfg.stagger
	for i := 0; i < cfg.writers; i++ {
		k.SpawnCont(&stormOpener{
			fs:      fs,
			name:    fmt.Sprintf("storm.%06d", i),
			ost:     i % numOSTs,
			stagger: stagger > 0,
			delay:   time.Duration(i) * stagger,
			wg:      wg,
			last:    &last,
		})
	}
	// Join explicitly, as every kind does: noise, interference and a
	// tracer's sampler run forever. The joiner perturbs nothing (no random
	// draws, no storage traffic).
	k.SpawnWait(wg, k.Stop)
	k.Run()
	return Sample{Elapsed: last.Seconds(), QueuePeak: fs.MDS.Stats.MaxQueue}, nil
}

// execJobMix co-schedules the point's resolved jobs onto one shared file
// system: every job is its own application world (own barriers, own job id
// in the per-job traffic accounting), launched at t=0 and pacing its I/O
// phases by its own start/period clock. The kernel stops when every job's
// last phase completes; per-job measurements come from the file system's
// attribution counters plus each job's observed completion time.
func execJobMix(c *cluster.Cluster, cfg replicaCfg) (Sample, error) {
	fs := c.FileSystem()
	k := c.Kernel()
	numOSTs := len(fs.OSTs)

	type jobRun struct {
		id  int
		end simkernel.Time
		err error
	}
	runs := make([]*jobRun, len(cfg.jobs))
	all := new(simkernel.WaitGroup)
	all.Add(len(cfg.jobs))

	for ji := range cfg.jobs {
		jc := cfg.jobs[ji]
		run := &jobRun{id: fs.RegisterJob(jc.name)}
		runs[ji] = run
		w := c.NewJobWorld(run.id, jc.procs)

		// Rank bodies come from the kernel's slabs, and every name a rank
		// uses is the point's (nameJobs), so a warmed replica builds
		// neither. A reused mlread or mdtest body keeps its op, whose chunk
		// list is scratch.
		var mk func(i int) cluster.RankCont
		switch jc.kind {
		case JobKindApp:
			io, err := adios.NewIO(c, w, jc.transport.adiosOptions())
			if err != nil {
				return Sample{}, err
			}
			bodies := simkernel.Local[simkernel.Slab[jobAppCont]](k)
			mk = func(i int) cluster.RankCont {
				m := bodies.New()
				*m = jobAppCont{
					phases: jc.phases, start: jc.start, period: jc.period,
					io: io, names: jc.names, perRank: jc.perRank, errp: &run.err,
				}
				return m
			}
		case JobKindMLRead:
			bodies := simkernel.Local[simkernel.Slab[jobMLReadCont]](k)
			mk = func(i int) cluster.RankCont {
				// The dataset shard pre-exists the training run; its
				// create is the job's only metadata cost.
				m := bodies.Reuse()
				*m = jobMLReadCont{
					phases: jc.phases, start: jc.start, period: jc.period,
					fs: fs, name: jc.names[i],
					ost: i % numOSTs, bytes: int64(jc.bytes), errp: &run.err,
					op: m.op,
				}
				return m
			}
		case JobKindMDTest:
			bodies := simkernel.Local[simkernel.Slab[jobMDTestCont]](k)
			perRank := jc.phases * jc.files
			mk = func(i int) cluster.RankCont {
				m := bodies.Reuse()
				*m = jobMDTestCont{
					phases: jc.phases, files: jc.files, start: jc.start, period: jc.period,
					fs: fs, names: jc.names[i*perRank : (i+1)*perRank : (i+1)*perRank],
					rank: i, numOSTs: numOSTs, bytes: int64(jc.bytes), errp: &run.err,
					op: m.op,
				}
				return m
			}
		default:
			return Sample{}, fmt.Errorf("scenario: unknown job kind %q", jc.kind)
		}

		wgJob := w.MPI().LaunchCont(mk)
		k.SpawnWait(wgJob, func() {
			run.end = k.Now()
			all.Done()
		})
	}

	// Noise and interference processes run forever, so join explicitly on
	// the jobs rather than draining the kernel.
	k.SpawnWait(all, k.Stop)
	k.Run()

	out := Sample{Jobs: make([]JobSample, 0, len(cfg.jobs))}
	var makespan float64
	for ji, run := range runs {
		if run.err != nil {
			return Sample{}, run.err
		}
		jc := cfg.jobs[ji]
		acct := fs.JobIO(run.id)
		js := JobSample{
			Name:         jc.name,
			Kind:         jc.kind,
			Ranks:        jc.procs,
			Start:        jc.start,
			Elapsed:      run.end.Seconds(),
			BytesWritten: acct.BytesWritten,
			BytesRead:    acct.BytesRead,
			MetaOps:      acct.MetaOps,
		}
		if span := js.Elapsed - js.Start; span > 0 {
			js.BW = (js.BytesWritten + js.BytesRead) / span
		}
		out.TotalBytes += js.BytesWritten + js.BytesRead
		if js.Elapsed > makespan {
			makespan = js.Elapsed
		}
		out.Jobs = append(out.Jobs, js)
	}
	out.Elapsed = makespan
	if makespan > 0 {
		out.AggregateBW = out.TotalBytes / makespan
	}
	return out, nil
}

// iorConfig is the point's IOR instance, shared by the two IOR kinds.
func iorConfig(cfg replicaCfg) ior.Config {
	c := ior.Config{
		Writers:        cfg.writers,
		BytesPerWriter: cfg.bytes,
		Mode:           ior.FilePerProcess,
		Flush:          cfg.flush,
	}
	if cfg.pin && cfg.numOSTs > 0 {
		c.OSTs = targetList(cfg.numOSTs)
	}
	if cfg.shared {
		c.Mode = ior.SharedFile
	}
	return c
}

func iorSample(r ior.Result) Sample {
	return Sample{
		Elapsed:       r.Elapsed,
		TotalBytes:    r.TotalBytes,
		AggregateBW:   r.AggregateBW,
		WriterTimes:   r.WriterTimes,
		PerWriterBW:   r.PerWriterBW,
		FailedWriters: r.FailedWriters,
	}
}

// targetList returns [0, 1, ..., n), or nil for n <= 0 (= all targets).
func targetList(n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
