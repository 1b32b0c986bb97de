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
// (fields a kind does not produce stay zero). A single-workload replica's
// sample is its measured job's own record (the first job's), with Jobs
// nil; a job mix's is the per-job records plus their aggregate.
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

// execReplica runs one grid-point replica of the scenario on a world
// rented from the worker's pool.
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
	return s.execJobs(c, cfg, tc)
}

// RunOn runs the spec's one grid point once on c, a world its caller built
// and owns (pfsinspect's probes): its machine, seed, noise and failure
// script are c's, not the spec's.
func RunOn(c *cluster.Cluster, s Scenario) (Sample, error) {
	if err := s.Validate(); err != nil {
		return Sample{}, err
	}
	pts := s.Points()
	if len(pts) != 1 {
		return Sample{}, fmt.Errorf("scenario %s: RunOn runs one grid point, the spec has %d", s.seedLabel(), len(pts))
	}
	cfg, err := s.point(pts[0].Params)
	if err != nil {
		return Sample{}, err
	}
	return s.execJobs(c, cfg, nil)
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

// jobRun is one job's run within a replica: its file-system id,
// completion time and first error, and what its sample reads.
type jobRun struct {
	id     int
	end    simkernel.Time
	err    error
	out    adios.StepOut // app jobs: the last phase's step outcome
	ior    *ior.Run      // ior jobs, launched on fs with icfg and joined by finish
	fs     *pfs.FileSystem
	icfg   ior.Config
	finish func()
}

// execJobs is the one executor. It stages the world (slow targets, and the
// artificial interference program when the point's condition asks for
// it), attaches the tracer, then runs the point's jobs on the shared file
// system. Each job is registered in spec order and its processes carry its
// id, so the file system attributes their traffic. App, mlread and mdtest
// jobs are application worlds pacing their phases by their own clocks; ior
// and storm jobs are plain kernel processes. Every job starts at t=0 but
// an ior job whose start is drawn. The run ends when every job has
// finished (noise, interference and a tracer's sampler are daemons), and a
// job that cannot finish fails the replica with the kernel's stuck error.
// A job mix returns per-job records from the attribution counters; a
// single-workload point returns its first job's own record.
func (s *Scenario) execJobs(c *cluster.Cluster, cfg replicaCfg, tc *traceCapture) (Sample, error) {
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

	fs := c.FileSystem()
	k := c.Kernel()
	numOSTs := len(fs.OSTs)

	// Job records, rank bodies and join counters come from the kernel's
	// slabs, and every name a process uses is the point's (nameJobs,
	// compileJobs), so a warmed replica builds none of them. A reused
	// body keeps its op, whose chunk list is scratch.
	runs := simkernel.Local[simkernel.Slab[jobRun]](k).Take(len(cfg.jobs))
	waits := simkernel.Local[simkernel.Slab[simkernel.WaitGroup]](k)

	for ji := range cfg.jobs {
		jc := &cfg.jobs[ji]
		run := &runs[ji]
		run.id = fs.RegisterJob(jc.name)
		finish := func() { run.end = k.Now() }

		switch jc.kind {
		case jobKindIOR:
			run.fs, run.icfg, run.finish = fs, jc.ior, finish
			run.icfg.Job = run.id
			if !jc.drawStart {
				if err := run.launchIOR(); err != nil {
					return Sample{}, err
				}
				continue
			}
			// Paired IOR's second job starts at a seed-varied offset within
			// the first job's run, as two batch jobs on a real machine
			// overlap at an arbitrary phase — the source of the up-to-43%
			// variability the paper measures on XTP.
			// Its "xtp-phase" stream is reseeded, not built, per replica.
			// Its record launches it as a worker, so the run waits for it.
			estimate := float64(jc.ior.Writers) * jc.ior.BytesPerWriter / (float64(numOSTs) * fs.Cfg.DiskBW * 0.8)
			phase := simkernel.Local[simkernel.Slab[rngx.Source]](k).Reuse()
			if *phase == (rngx.Source{}) {
				*phase = *rngx.New(0)
			}
			phase.ReseedNamed(fs.Cfg.Seed, "xtp-phase")
			k.SpawnContAt(k.Now()+simkernel.FromSeconds(phase.Uniform(0, estimate)), run)
			continue
		case jobKindStorm:
			wg := simkernel.TakeWaitGroup(waits, jc.procs)
			openers := simkernel.Local[simkernel.Slab[stormOpener]](k)
			for i := range jc.procs {
				m := openers.Reuse()
				*m = stormOpener{
					fs: fs, name: jc.names[i], ost: i % numOSTs,
					stagger: jc.stagger > 0, delay: time.Duration(i) * jc.stagger,
					wg: wg, errp: &run.err, op: m.op,
				}
				k.SpawnContJob(run.id, m)
			}
			k.SpawnWait(wg, finish)
			continue
		}

		w := c.NewJobWorld(run.id, jc.procs)
		var mk func(i int) cluster.RankCont
		switch jc.kind {
		case JobKindApp:
			io, err := adios.NewIO(c, w, jc.transport.adiosOptions())
			if err != nil {
				return Sample{}, err
			}
			if jc.phases == 1 && jc.start == 0 {
				// One step at t=0 needs no phase clock, so the rank body is
				// the step itself: 56 bytes to jobAppCont's 80, which a
				// replica of 16,384 ranks feels in the cache.
				steps := simkernel.Local[simkernel.Slab[adios.WriteStep]](k)
				mk = func(i int) cluster.RankCont {
					m := steps.New()
					*m = adios.WriteStep{IO: io, Step: jc.names[0], PerRank: jc.perRank, Out: &run.out}
					return m
				}
				break
			}
			bodies := simkernel.Local[simkernel.Slab[jobAppCont]](k)
			mk = func(i int) cluster.RankCont {
				m := bodies.New()
				*m = jobAppCont{job: jc, step: adios.WriteStep{IO: io, PerRank: jc.perRank, Out: &run.out}}
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
		k.SpawnWait(w.MPI().LaunchCont(mk), finish)
	}

	k.Run()

	for i := range runs {
		run := &runs[i]
		if run.err == nil && run.ior != nil {
			run.err = run.ior.Err()
		}
		if run.err == nil {
			run.err = run.out.Err
		}
		if run.err != nil {
			return Sample{}, run.err
		}
	}
	if err := k.Stuck(); err != nil {
		return Sample{}, err
	}
	if cfg.kind != KindJobMix {
		return runs[0].sample(cfg.jobs[0].kind, fs), nil
	}

	out := Sample{Jobs: make([]JobSample, 0, len(cfg.jobs))}
	var makespan float64
	for ji := range runs {
		run := &runs[ji]
		jc := &cfg.jobs[ji]
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

// Step launches an ior job at its drawn start (paired IOR's job B).
func (r *jobRun) Step(*simkernel.ContProc) bool {
	r.err = r.launchIOR()
	return true
}

// launchIOR launches the job's IOR run, joined by finish.
func (r *jobRun) launchIOR() error {
	ir, err := ior.Launch(r.fs, r.icfg)
	if err == nil {
		r.ior = ir
		ir.OnDone(r.fs.K, r.finish)
	}
	return err
}

// sample is a single-workload replica's result: the measured job's own
// record.
func (r *jobRun) sample(kind string, fs *pfs.FileSystem) Sample {
	switch kind {
	case JobKindApp:
		res := r.out.Result
		return Sample{
			Elapsed:     res.Elapsed,
			AggregateBW: res.AggregateBW(),
			// The step builds this slice fresh and nothing world-owned
			// aliases it, so the sample keeps it without a copy.
			WriterTimes:    res.WriterTimes,
			TotalBytes:     res.TotalBytes,
			AdaptiveWrites: res.AdaptiveWrites,
			WriteFailures:  res.WriteFailures,
		}
	case jobKindIOR:
		res := r.ior.Result()
		return Sample{
			Elapsed:       res.Elapsed,
			TotalBytes:    res.TotalBytes,
			AggregateBW:   res.AggregateBW,
			WriterTimes:   res.WriterTimes,
			PerWriterBW:   res.PerWriterBW,
			FailedWriters: res.FailedWriters,
		}
	}
	return Sample{Elapsed: r.end.Seconds(), QueuePeak: fs.MDS.Stats.MaxQueue}
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
