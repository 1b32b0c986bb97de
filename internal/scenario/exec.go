package scenario

import (
	"fmt"
	"time"

	"repro/adios"
	"repro/cluster"
	"repro/internal/interference"
	"repro/internal/iomethod"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/rngx"
	"repro/internal/simkernel"
	"repro/internal/stats"
	"repro/internal/workloads"
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

// CampaignConfig is one application campaign replica: the app workload
// kind's execution input, exported so a caller that needs one campaign
// outside a spec grid (the root benchmarks) runs the same single path.
type CampaignConfig struct {
	// Machine preset name (default "jaguar").
	Machine string
	// Writers is the application's process count.
	Writers int
	// NumOSTs optionally scales the machine down (0 = preset size).
	NumOSTs int
	// NoNoise disables production background noise.
	NoNoise bool
	// Seed drives the replica's world.
	Seed int64
	// IO configures the transport.
	IO adios.Options
	// PerRank produces each rank's output data.
	PerRank func(rank int) iomethod.RankData
	// Interference enables the artificial interference program, tuned by
	// the three knobs below (zero values = the paper's 8 × 3 × 1 GB).
	Interference            bool
	InterferenceOSTs        []int
	InterferenceProcsPerOST int
	InterferenceChunkBytes  float64
	// SlowOSTs degrade targets deterministically before the run.
	SlowOSTs []SlowOST
	// Failures scripts deterministic storage failures for the replica.
	Failures interference.FailureConfig
	// Pool, if non-nil, supplies the replica's world (reset, not rebuilt).
	// A nil Pool builds and tears down a fresh world — the two paths are
	// bit-identical by the world-reuse determinism contract.
	Pool *cluster.Pool
}

// ExecCampaign executes one collective output step of an application under
// the given environment and returns its measurements.
func ExecCampaign(cfg CampaignConfig) (Sample, error) {
	return execCampaign(cfg, nil)
}

func execCampaign(cfg CampaignConfig, tc *traceCapture) (Sample, error) {
	if cfg.Machine == "" {
		cfg.Machine = "jaguar"
	}
	if cfg.Writers <= 0 {
		return Sample{}, fmt.Errorf("scenario: campaign writers must be positive")
	}
	if cfg.PerRank == nil {
		return Sample{}, fmt.Errorf("scenario: campaign needs a per-rank generator")
	}
	c, err := cfg.Pool.Rent(cfg.Machine, cluster.Config{
		Seed:            cfg.Seed,
		NumOSTs:         cfg.NumOSTs,
		ProductionNoise: !cfg.NoNoise,
		Failures:        cfg.Failures,
	})
	if err != nil {
		return Sample{}, err
	}
	defer cfg.Pool.Return(c)
	defer tc.finish()

	if err := applySlow(c, cfg.SlowOSTs); err != nil {
		return Sample{}, err
	}
	if cfg.Interference {
		// The paper's artificial interference: stripe count 8 (two
		// applications at the default stripe count of 4), three 1 GB
		// writers per target.
		c.StartArtificialInterference(cfg.InterferenceOSTs, cfg.InterferenceProcsPerOST, cfg.InterferenceChunkBytes)
	}
	tc.attach(c)

	w := c.NewWorld(cfg.Writers)
	io, err := adios.NewIO(c, w, cfg.IO)
	if err != nil {
		return Sample{}, err
	}

	var out campaignOut
	stepName := fmt.Sprintf("%s.out", cfg.IO.Method)
	j := w.LaunchCont(func(i int) cluster.RankCont {
		return &campaignCont{io: io, stepName: stepName, perRank: cfg.PerRank, out: &out}
	})
	c.RunUntilDone(j)
	if out.err != nil {
		return Sample{}, out.err
	}
	res := out.res
	if !j.Done() || res == nil {
		return Sample{}, fmt.Errorf("scenario: campaign did not complete")
	}
	return Sample{
		Elapsed:     res.Elapsed,
		AggregateBW: res.AggregateBW(),
		// Ownership transfers: the step result's per-writer slice is built
		// fresh for every step and nothing world-owned aliases it, so the
		// sample keeps it without the old defensive re-copy.
		WriterTimes:    res.WriterTimes,
		TotalBytes:     res.TotalBytes,
		AdaptiveWrites: res.AdaptiveWrites,
		WriteFailures:  res.WriteFailures,
	}, nil
}

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

// execReplica runs one grid-point replica of the scenario on a world rented
// from the worker's pool (nil pool = fresh world per replica).
func (s *Scenario) execReplica(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	switch cfg.kind {
	case KindApp:
		perRank := s.Workload.PerRank
		if perRank == nil {
			gen, err := generatorFor(cfg.generator)
			if err != nil {
				return Sample{}, err
			}
			perRank = gen
		}
		return execCampaign(CampaignConfig{
			Machine:                 cfg.machine,
			Writers:                 cfg.procs,
			NumOSTs:                 cfg.numOSTs,
			NoNoise:                 !cfg.noise,
			Seed:                    seed,
			IO:                      cfg.transport.adiosOptions(),
			PerRank:                 perRank,
			Interference:            cfg.condition == ConditionInterference,
			InterferenceOSTs:        s.Interference.OSTs,
			InterferenceProcsPerOST: s.Interference.ProcsPerOST,
			InterferenceChunkBytes:  s.Interference.ChunkMB * pfs.MB,
			SlowOSTs:                s.Interference.SlowOSTs,
			Failures:                s.failureConfig(cfg.failures),
			Pool:                    pool,
		}, tc)
	case KindIOR:
		return s.execIOR(cfg, seed, pool, tc)
	case KindPairedIOR:
		return s.execPairedIOR(cfg, seed, pool, tc)
	case KindOpenStorm:
		return s.execOpenStorm(cfg, seed, pool, tc)
	case KindJobMix:
		return s.execJobMix(cfg, seed, pool, tc)
	}
	return Sample{}, fmt.Errorf("scenario: unknown workload kind %q", cfg.kind)
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
func (s *Scenario) execIOR(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
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
	if err := s.applyInterference(c, cfg); err != nil {
		return Sample{}, err
	}
	tc.attach(c)
	r, err := ior.Execute(c.FileSystem(), ior.Config{
		Writers:        cfg.writers,
		OSTs:           iorTargets(cfg),
		BytesPerWriter: cfg.bytes,
		Mode:           iorMode(cfg),
		Flush:          cfg.flush,
	})
	if err != nil {
		return Sample{}, err
	}
	return iorSample(r), nil
}

// execPairedIOR runs the XTP shape: one IOR alone, or two simultaneous IOR
// programs overlapping at a seed-varied phase, measuring the first.
func (s *Scenario) execPairedIOR(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
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
	if err := s.applyInterference(c, cfg); err != nil {
		return Sample{}, err
	}
	tc.attach(c)
	fs := c.FileSystem()

	iorCfg := ior.Config{
		Writers:        cfg.writers,
		OSTs:           iorTargets(cfg),
		BytesPerWriter: cfg.bytes,
		Mode:           iorMode(cfg),
		Flush:          cfg.flush,
	}

	// With a tracer attached the kernel never drains naturally (the sampler
	// keeps it alive), so join on the runs explicitly; without one, keep
	// the natural-drain path the golden Table I checksums pin.
	var joinDone func()
	expected := 1
	if cfg.withInterference {
		expected = 2
	}
	if tc != nil {
		wg := simkernel.NewWaitGroup(c.Kernel())
		wg.Add(expected)
		joinDone = wg.Done
		k := c.Kernel()
		k.SpawnWait("scenario-joiner", wg, k.Stop)
	}

	iorCfg.Tag = "A"
	runA, err := ior.Launch(fs, iorCfg)
	if err != nil {
		return Sample{}, err
	}
	if joinDone != nil {
		runA.OnDone(c.Kernel(), joinDone)
	}
	var runB *ior.Run
	var launchErr error
	if cfg.withInterference {
		// The second job starts at a seed-varied offset within the first
		// job's run, as two batch jobs on a real machine overlap at an
		// arbitrary phase — the source of the up-to-43% variability the
		// paper measures on XTP.
		rng := rngx.NewNamed(seed, "xtp-phase")
		estimate := float64(cfg.writers) * cfg.bytes / (float64(len(fs.OSTs)) * fs.Cfg.DiskBW * 0.8)
		delay := rng.Uniform(0, estimate)
		c.Kernel().AfterSeconds(delay, func() {
			bCfg := iorCfg
			bCfg.Tag = "B"
			runB, launchErr = ior.Launch(fs, bCfg)
			if launchErr == nil && joinDone != nil {
				runB.OnDone(fs.K, joinDone)
			}
		})
	}
	c.Run()
	if launchErr != nil {
		return Sample{}, launchErr
	}
	if !runA.Done() || (runB != nil && !runB.Done()) {
		return Sample{}, fmt.Errorf("scenario: paired IOR did not complete")
	}
	return iorSample(runA.Result()), nil
}

// execOpenStorm has `writers` ranks create one file each (stagger-spaced)
// and measures the storm completion time and MDS queue peak.
func (s *Scenario) execOpenStorm(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
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
	if err := s.applyInterference(c, cfg); err != nil {
		return Sample{}, err
	}
	tc.attach(c)
	fs := c.FileSystem()
	k := c.Kernel()
	wg := simkernel.NewWaitGroup(k)
	wg.Add(cfg.writers)
	var last simkernel.Time
	numOSTs := len(fs.OSTs)
	stagger := cfg.stagger
	for i := 0; i < cfg.writers; i++ {
		k.SpawnCont("opener", &stormOpener{
			fs:      fs,
			name:    fmt.Sprintf("storm.%06d", i),
			ost:     i % numOSTs,
			stagger: stagger > 0,
			delay:   time.Duration(i) * stagger,
			wg:      wg,
			last:    &last,
		})
	}
	// Join explicitly: a tracer's sampler would keep the kernel alive
	// forever under natural drain, and the joiner perturbs nothing (no
	// random draws, no storage traffic).
	k.SpawnWait("scenario-joiner", wg, k.Stop)
	k.Run()
	return Sample{Elapsed: last.Seconds(), QueuePeak: fs.MDS.Stats.MaxQueue}, nil
}

// execJobMix co-schedules the point's resolved jobs onto one shared file
// system: every job is its own application world (own barriers, own job id
// in the per-job traffic accounting), launched at t=0 and pacing its I/O
// phases by its own start/period clock. The kernel stops when every job's
// last phase completes; per-job measurements come from the file system's
// attribution counters plus each job's observed completion time.
func (s *Scenario) execJobMix(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, err := pool.Rent(cfg.machine, cluster.Config{
		Seed:            seed,
		NumOSTs:         cfg.numOSTs,
		ProductionNoise: cfg.noise,
		WorldShape:      cfg.shape,
		Failures:        s.failureConfig(cfg.failures),
	})
	if err != nil {
		return Sample{}, err
	}
	defer pool.Return(c)
	defer tc.finish()
	if err := s.applyInterference(c, cfg); err != nil {
		return Sample{}, err
	}
	tc.attach(c)

	fs := c.FileSystem()
	k := c.Kernel()
	numOSTs := len(fs.OSTs)

	type jobRun struct {
		id  int
		end simkernel.Time
		err error
	}
	runs := make([]*jobRun, len(cfg.jobs))
	all := simkernel.NewWaitGroup(k)
	all.Add(len(cfg.jobs))

	for ji := range cfg.jobs {
		jc := cfg.jobs[ji]
		run := &jobRun{id: fs.RegisterJob(jc.name)}
		runs[ji] = run
		w := c.NewJobWorld(jc.name, run.id, jc.procs)

		var mk func(i int) cluster.RankCont
		switch jc.kind {
		case JobKindApp:
			perRank, err := generatorFor(jc.generator)
			if err != nil {
				return Sample{}, err
			}
			io, err := adios.NewIO(c, w, jc.transport.adiosOptions())
			if err != nil {
				return Sample{}, err
			}
			names := appStepNames(jc.name, jc.phases)
			mk = func(i int) cluster.RankCont {
				return &jobAppCont{
					phases: jc.phases, start: jc.start, period: jc.period,
					io: io, names: names, perRank: perRank, errp: &run.err,
				}
			}
		case JobKindMLRead:
			mk = func(i int) cluster.RankCont {
				// The dataset shard pre-exists the training run; its
				// create is the job's only metadata cost.
				return &jobMLReadCont{
					phases: jc.phases, start: jc.start, period: jc.period,
					fs: fs, name: fmt.Sprintf("%s.shard.%05d", jc.name, i),
					ost: i % numOSTs, bytes: int64(jc.bytes), errp: &run.err,
				}
			}
		case JobKindMDTest:
			mk = func(i int) cluster.RankCont {
				return &jobMDTestCont{
					phases: jc.phases, files: jc.files, start: jc.start, period: jc.period,
					fs: fs, job: jc.name, rank: i, numOSTs: numOSTs,
					bytes: int64(jc.bytes), errp: &run.err,
				}
			}
		default:
			return Sample{}, fmt.Errorf("scenario: unknown job kind %q", jc.kind)
		}

		wgJob := w.MPI().LaunchCont(jc.name, mk)
		k.SpawnWait("jobmix-watch", wgJob, func() {
			run.end = k.Now()
			all.Done()
		})
	}

	// Noise and interference processes run forever, so join explicitly on
	// the jobs rather than draining the kernel.
	k.SpawnWait("jobmix-joiner", all, k.Stop)
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

// applyInterference stages the scenario's disturbance model on a fresh
// cluster: deterministic slow targets plus, when the point's condition asks
// for it, the artificial interference program.
func (s *Scenario) applyInterference(c *cluster.Cluster, cfg replicaCfg) error {
	if err := applySlow(c, s.Interference.SlowOSTs); err != nil {
		return err
	}
	if cfg.condition == ConditionInterference {
		c.StartArtificialInterference(s.Interference.OSTs, s.Interference.ProcsPerOST, s.Interference.ChunkMB*pfs.MB)
	}
	return nil
}

func applySlow(c *cluster.Cluster, slow []SlowOST) error {
	for _, so := range slow {
		if so.Index < 0 || so.Index >= c.NumOSTs() {
			return fmt.Errorf("scenario: slow OST index %d out of range (machine has %d)", so.Index, c.NumOSTs())
		}
		c.SlowOST(so.Index, so.Factor)
	}
	return nil
}

func iorTargets(cfg replicaCfg) []int {
	if cfg.pin && cfg.numOSTs > 0 {
		return targetList(cfg.numOSTs)
	}
	return nil
}

func iorMode(cfg replicaCfg) ior.Mode {
	if cfg.shared {
		return ior.SharedFile
	}
	return ior.FilePerProcess
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

func generatorFor(name string) (func(rank int) iomethod.RankData, error) {
	gen, err := workloads.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return gen.PerRank, nil
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
