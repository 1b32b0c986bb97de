package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/iomethod"
	"repro/internal/ior"
	"repro/internal/machines"
	"repro/internal/pfs"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// Point is one compiled grid point: the cross product of one value per
// axis, with the scenario's sample count after per-value overrides.
type Point struct {
	Label   string
	Samples int
	Params  Params
}

// Points compiles the axes into the grid, first axis outermost — the same
// enumeration order the hand-written drivers used, so replica keys (and
// therefore progress callbacks and result layout) are stable.
func (s *Scenario) Points() []Point {
	if len(s.Axes) == 0 {
		label := s.PointLabel
		if label == "" {
			label = "all"
		}
		return []Point{{Label: label, Samples: s.Samples, Params: Params{}}}
	}
	pts := []Point{{Samples: s.Samples, Params: Params{}}}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(pts)*len(ax.Values))
		for _, p := range pts {
			for _, v := range ax.Values {
				np := Point{Label: joinLabel(p.Label, ax.labelFor(v)), Samples: p.Samples, Params: cloneParams(p.Params)}
				if v.Samples > 0 {
					np.Samples = v.Samples
				}
				np.Params[ax.Name] = v
				for k, wv := range v.With { //repro:allow nodeterm keyed map-to-map merge; result is independent of visit order
					np.Params[k] = wv
				}
				next = append(next, np)
			}
		}
		pts = next
	}
	return pts
}

func joinLabel(prefix, frag string) string {
	if prefix == "" {
		return frag
	}
	return prefix + "/" + frag
}

// ReplicaKeys lays the grid out as runner keys: for each point in order,
// samples 0..n-1. Seeds depend only on (seed label, point label, sample),
// never on this enumeration, so any regrouping stays bit-identical.
func (s *Scenario) ReplicaKeys() ([]runner.ReplicaKey, []Point) {
	pts := s.Points()
	var keys []runner.ReplicaKey
	for _, pt := range pts {
		keys = append(keys, runner.SampleKeys(s.seedLabel(), pt.Label, pt.Samples)...)
	}
	return keys, pts
}

// Validate checks the spec: identity, workload kind, transport method,
// machine and generator resolution, axis consistency, and a positive
// sample count at every compiled grid point.
func (s *Scenario) Validate() error {
	if s.seedLabel() == "" {
		return fmt.Errorf("scenario: needs a name (or seed_label)")
	}
	switch s.workloadKind() {
	case KindApp, KindIOR, KindPairedIOR, KindOpenStorm:
		if len(s.Jobs) > 0 {
			return fmt.Errorf("scenario %s: jobs array requires workload kind %q (or no kind), not %q", s.seedLabel(), KindJobMix, s.Workload.Kind)
		}
	case KindJobMix:
		if len(s.Jobs) == 0 {
			return fmt.Errorf("scenario %s: workload kind %q needs a jobs array", s.seedLabel(), KindJobMix)
		}
	case "":
		return fmt.Errorf("scenario %s: workload kind required (app | ior | paired-ior | openstorm | jobmix)", s.seedLabel())
	default:
		return fmt.Errorf("scenario %s: unknown workload kind %q (want app | ior | paired-ior | openstorm | jobmix)", s.seedLabel(), s.Workload.Kind)
	}

	names := make(map[string]bool, len(s.Axes))
	for _, ax := range s.Axes {
		if ax.Name == "" {
			return fmt.Errorf("scenario %s: axis without a name", s.seedLabel())
		}
		if names[ax.Name] {
			return fmt.Errorf("scenario %s: conflicting grid axes: %q appears twice", s.seedLabel(), ax.Name)
		}
		names[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("scenario %s: axis %q has no values", s.seedLabel(), ax.Name)
		}
	}
	for _, ax := range s.Axes {
		for _, v := range ax.Values {
			// Check bound names in sorted order so that when a value binds
			// several conflicting names, validation deterministically reports
			// the same one every run.
			binds := make([]string, 0, len(v.With))
			for k := range v.With {
				binds = append(binds, k)
			}
			sort.Strings(binds)
			for _, k := range binds {
				if k != ax.Name && names[k] {
					return fmt.Errorf("scenario %s: axis %q value %q binds %q, which conflicts with grid axis %q",
						s.seedLabel(), ax.Name, ax.labelFor(v), k, k)
				}
			}
		}
	}

	seen := make(map[string]bool)
	for _, pt := range s.Points() {
		if seen[pt.Label] {
			return fmt.Errorf("scenario %s: conflicting grid axes: duplicate point label %q", s.seedLabel(), pt.Label)
		}
		seen[pt.Label] = true
		if pt.Samples <= 0 {
			return fmt.Errorf("scenario %s: point %q has zero samples", s.seedLabel(), pt.Label)
		}
		c, err := s.resolve(pt.Params)
		if err == nil && len(s.Interference.SlowOSTs) > 0 {
			err = s.checkSlowOSTs(c)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: point %q: %w", s.seedLabel(), pt.Label, err)
		}
	}
	return nil
}

// checkSlowOSTs rejects a slow_osts entry whose index is not a target of
// the resolved point's machine or whose factor lies outside (0, 1].
func (s *Scenario) checkSlowOSTs(c replicaCfg) error {
	n := c.numOSTs
	if n <= 0 {
		m, _ := machines.ByName(c.machine, 0)
		n = m.FS.NumOSTs
	}
	for _, so := range s.Interference.SlowOSTs {
		if so.Index < 0 || so.Index >= n {
			return fmt.Errorf("slow OST index %d out of range (machine has %d)", so.Index, n)
		}
		if !(so.Factor > 0 && so.Factor <= 1) {
			return fmt.Errorf("slow OST %d factor %g outside (0, 1]", so.Index, so.Factor)
		}
	}
	return nil
}

// replicaCfg is one grid point's fully resolved execution configuration.
type replicaCfg struct {
	kind    string
	machine string
	numOSTs int
	noise   bool

	// IOR-family knobs.
	writers          int
	bytes            float64
	pin              bool
	flush            bool
	shared           bool
	withInterference bool

	// openstorm knob.
	stagger time.Duration

	// app knobs: perRank is the named generator's shared rank-data
	// function, looked up once per point.
	procs     int
	generator string
	perRank   func(rank int) iomethod.RankData
	method    string
	transport Transport

	// jobs are what the executor runs: a mix's resolved jobs, or, for
	// the other kinds, the jobs point compiles the knobs above into.
	jobs []jobCfg

	condition string
	// failures arms the spec's declared failure script on this point.
	failures bool
}

// jobCfg is one resolved job of a point's job list.
type jobCfg struct {
	name      string
	kind      string
	generator string
	perRank   func(rank int) iomethod.RankData // app jobs
	procs     int
	bytes     float64 // per-rank per-phase volume (mlread read size, mdtest file size)
	files     int     // mdtest creates per rank per phase
	transport Transport
	start     float64
	period    float64
	phases    int
	// names are the names the job's ranks use, built by nameJobs (or
	// compileJobs) and shared read-only by every replica of the point: an
	// app job's step names by phase, an mlread job's shards by rank, an
	// mdtest job's burst files rank-major (rank r, phase ph, file fi at
	// (r*phases+ph)*files+fi), a storm job's files by opener.
	names []string

	// ior jobs: the instance (its Job is set at launch), and whether its
	// start is drawn per replica (paired IOR's second job).
	ior       ior.Config
	drawStart bool
	// storm jobs: the spacing of the openers' creates.
	stagger time.Duration
}

// resolve merges the spec's base fields with one point's parameter
// bindings. Axis names are conventional: "machine", "osts", "noise",
// "kind", "writers", "ratio", "size" (MB), "bytes", "procs", "generator",
// "method", "transport_osts", "condition", "with_interference",
// "stagger" (ns), "failures" (arm the declared failure script),
// "adapt" (false = the DisableAdaptation ablation).
func (s *Scenario) resolve(p Params) (replicaCfg, error) {
	c := replicaCfg{
		kind:      p.Str("kind", s.workloadKind()),
		machine:   p.Str("machine", s.Machine),
		numOSTs:   p.Int("osts", s.NumOSTs),
		noise:     p.Bool("noise", !s.NoNoise),
		pin:       s.Workload.PinTargets,
		flush:     s.Workload.Flush,
		shared:    s.Workload.SharedFile,
		procs:     p.Int("procs", s.Workload.Procs),
		generator: p.Str("generator", s.Workload.Generator),
		method:    p.Str("method", s.Transport.Method),
		transport: s.Transport,
		condition: p.Str("condition", s.Interference.Condition),
		failures:  p.Bool("failures", s.Interference.Failures.declared()),
	}
	if p.Has("adapt") {
		c.transport.DisableAdaptation = !p.Bool("adapt", true)
	}
	if c.machine == "" {
		c.machine = "jaguar"
	}
	if c.condition == "" {
		c.condition = ConditionBase
	} else if c.condition != ConditionBase && c.condition != ConditionInterference {
		return c, fmt.Errorf("unknown condition %q (want %s | %s)", c.condition, ConditionBase, ConditionInterference)
	}
	if _, ok := machines.ByName(c.machine, 0); !ok {
		return c, fmt.Errorf("unknown machine %q (have %v)", c.machine, machines.Names())
	}
	if c.failures {
		if !s.Interference.Failures.declared() {
			return c, fmt.Errorf("failures axis armed but the spec declares no failure script")
		}
		m, _ := machines.ByName(c.machine, 0)
		n := m.FS.NumOSTs
		if c.numOSTs > 0 {
			n = c.numOSTs
		}
		if err := s.failureConfig(true).Validate(n); err != nil {
			return c, err
		}
	}

	c.bytes = s.Workload.Bytes
	if c.bytes == 0 {
		c.bytes = s.Workload.SizeMB * pfs.MB
	}
	if p.Has("size") {
		c.bytes = p.Float("size", 0) * pfs.MB
	}
	if p.Has("bytes") {
		c.bytes = p.Float("bytes", 0)
	}

	c.writers = p.Int("writers", s.Workload.Writers)
	if ratio := p.Int("ratio", s.Workload.WritersPerOST); ratio > 0 {
		c.writers = c.numOSTs * ratio
	}

	c.withInterference = p.Bool("with_interference", s.Workload.WithInterference)

	if w := s.Workload.Stagger; w != "" {
		var err error
		if c.stagger, err = time.ParseDuration(w); err != nil {
			return c, fmt.Errorf("bad stagger %q: %v", w, err)
		}
	}
	if p.Has("stagger") {
		c.stagger = time.Duration(int64(p.Float("stagger", 0)))
	}

	c.transport.Method = c.method
	c.transport.OSTs = p.Int("transport_osts", s.Transport.OSTs)

	switch c.kind {
	case KindApp:
		if err := checkMethod(c.method); err != nil {
			return c, err
		}
		if c.procs <= 0 {
			return c, fmt.Errorf("app workload needs a positive process count")
		}
		if c.generator == "" {
			return c, fmt.Errorf("app workload needs a generator")
		}
		gen, err := workloads.ByName(c.generator)
		if err != nil {
			return c, err
		}
		c.perRank = gen.PerRank
	case KindIOR, KindPairedIOR, KindOpenStorm:
		if c.writers <= 0 {
			return c, fmt.Errorf("%s workload needs positive writers (or a ratio with osts set)", c.kind)
		}
		if !(c.bytes >= 0 && c.bytes < 1<<63) {
			return c, fmt.Errorf("per-writer size %g bytes outside [0, 2^63)", c.bytes)
		}
	case KindJobMix:
		if err := s.resolveJobs(&c, p); err != nil {
			return c, err
		}
	default:
		return c, fmt.Errorf("unknown workload kind %q", c.kind)
	}
	return c, nil
}

// point resolves one grid point for execution: resolve, then its job
// list, named. Run and every test that executes replicas outside Run go
// through it.
func (s *Scenario) point(p Params) (replicaCfg, error) {
	c, err := s.resolve(p)
	if err != nil {
		return c, err
	}
	if c.kind == KindJobMix {
		c.nameJobs()
	} else {
		c.compileJobs()
	}
	return c, nil
}

// compileJobs compiles a single-workload point into its named job list
// (see the Kind constants). Like nameJobs it stays out of resolve, so
// Validate builds no job list.
func (c *replicaCfg) compileJobs() {
	switch c.kind {
	case KindApp:
		c.jobs = []jobCfg{{name: c.generator, kind: JobKindApp, perRank: c.perRank,
			procs: c.procs, transport: c.transport, phases: 1, names: []string{c.transport.Method + ".out"}}}
	case KindIOR, KindPairedIOR:
		a := jobCfg{name: "A", kind: jobKindIOR, procs: c.writers,
			ior: ior.Config{Writers: c.writers, BytesPerWriter: c.bytes, Flush: c.flush}}
		if c.pin && c.numOSTs > 0 {
			a.ior.OSTs = targetList(c.numOSTs)
		}
		if c.shared {
			a.ior.Mode = ior.SharedFile
		}
		c.jobs = []jobCfg{a}
		if c.kind == KindPairedIOR && c.withInterference {
			a.name, a.drawStart = "B", true
			c.jobs = append(c.jobs, a)
		}
	case KindOpenStorm:
		names := make([]string, c.writers)
		for i := range names {
			names[i] = fmt.Sprintf("storm.%06d", i)
		}
		c.jobs = []jobCfg{{name: "storm", kind: jobKindStorm, procs: c.writers, names: names, stagger: c.stagger}}
	}
}

// nameJobs builds every name the point's jobs use (see jobCfg.names), once
// per point. It must stay out of resolve: Validate resolves every point,
// and a user waits for Validate before the campaign starts.
func (c *replicaCfg) nameJobs() {
	for i := range c.jobs {
		jc := &c.jobs[i]
		switch jc.kind {
		case JobKindApp:
			jc.names = make([]string, jc.phases)
			for ph := range jc.names {
				jc.names[ph] = fmt.Sprintf("%s.ph%03d.bp", jc.name, ph)
			}
		case JobKindMLRead:
			jc.names = make([]string, jc.procs)
			for r := range jc.names {
				jc.names[r] = fmt.Sprintf("%s.shard.%05d", jc.name, r)
			}
		case JobKindMDTest:
			jc.names = make([]string, 0, jc.procs*jc.phases*jc.files)
			for r := range jc.procs {
				for ph := range jc.phases {
					for fi := range jc.files {
						jc.names = append(jc.names, mdtestFileName(jc.name, r, ph, fi))
					}
				}
			}
		}
	}
}

// mdtestFileName builds one burst file's name,
// fmt.Sprintf("%s.r%05d.ph%03d.f%04d", job, rank, ph, fi), in a stack
// buffer; the only allocation is the returned string.
func mdtestFileName(job string, rank, ph, fi int) string {
	var buf [64]byte
	b := append(buf[:0], job...)
	for _, f := range [...]struct {
		sep      string
		v, width int
	}{{".r", rank, 5}, {".ph", ph, 3}, {".f", fi, 4}} {
		b = append(b, f.sep...)
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], int64(f.v), 10)
		for n := len(d); n < f.width; n++ {
			b = append(b, '0')
		}
		b = append(b, d...)
	}
	return string(b)
}

// workloadKind resolves the spec's workload kind, defaulting to jobmix when
// a jobs array is declared without an explicit kind.
func (s *Scenario) workloadKind() string {
	if s.Workload.Kind == "" && len(s.Jobs) > 0 {
		return KindJobMix
	}
	return s.Workload.Kind
}

// resolveJobs expands the spec's job templates for one grid point. Two axes
// are job-mix specific: "njobs" cycles the template list to N concurrent
// jobs (replicated jobs get a "#k" name suffix), and "method" overrides
// every app job's transport method — the static-vs-adaptive sweep knob.
func (s *Scenario) resolveJobs(c *replicaCfg, p Params) error {
	if len(s.Jobs) == 0 {
		return fmt.Errorf("jobmix workload needs a jobs array")
	}
	n := p.Int("njobs", len(s.Jobs))
	if n <= 0 || n > 4096 { // Validate resolves every job: bound what it builds
		return fmt.Errorf("njobs must be in [1, 4096]")
	}
	c.jobs = make([]jobCfg, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		js := s.Jobs[i%len(s.Jobs)]
		jc := jobCfg{
			name:      js.Name,
			kind:      js.Kind,
			generator: js.Generator,
			procs:     js.Procs,
			files:     js.FilesPerRank,
			transport: js.Transport,
			start:     js.StartSeconds,
			period:    js.PeriodSeconds,
			phases:    js.Phases,
		}
		if jc.name == "" {
			jc.name = fmt.Sprintf("job%d", i%len(s.Jobs))
		}
		if rep := i / len(s.Jobs); rep > 0 {
			jc.name = fmt.Sprintf("%s#%d", jc.name, rep+1)
		}
		if seen[jc.name] {
			return fmt.Errorf("duplicate job name %q in mix", jc.name)
		}
		seen[jc.name] = true
		if jc.phases <= 0 {
			jc.phases = 1
		}
		if jc.procs <= 0 {
			return fmt.Errorf("job %q needs a positive process count", jc.name)
		}
		if jc.start < 0 || jc.period < 0 {
			return fmt.Errorf("job %q has negative phase timing", jc.name)
		}
		jc.bytes = js.Bytes
		if jc.bytes == 0 {
			jc.bytes = js.SizeMB * pfs.MB
		}
		if jc.transport.OSTs == 0 {
			jc.transport.OSTs = c.transport.OSTs
		}
		switch js.Kind {
		case JobKindApp:
			if p.Has("method") || jc.transport.Method == "" {
				jc.transport.Method = c.method
			}
			if err := checkMethod(jc.transport.Method); err != nil {
				return fmt.Errorf("job %q: %w", jc.name, err)
			}
			if jc.generator == "" {
				return fmt.Errorf("job %q: app job needs a generator", jc.name)
			}
			gen, err := workloads.ByName(jc.generator)
			if err != nil {
				return fmt.Errorf("job %q: %w", jc.name, err)
			}
			jc.perRank = gen.PerRank
		case JobKindMLRead:
			if jc.generator == "" {
				jc.generator = "mltrain"
			}
			gen, err := workloads.ByName(jc.generator)
			if err != nil {
				return fmt.Errorf("job %q: %w", jc.name, err)
			}
			if jc.bytes == 0 {
				jc.bytes = float64(gen.BytesPerProcess)
			}
		case JobKindMDTest:
			if jc.files <= 0 {
				jc.files = 16
			}
			if jc.bytes == 0 {
				jc.bytes = workloads.MDTestBytesPerFile
			}
		default:
			return fmt.Errorf("job %q: unknown job kind %q (want app | mlread | mdtest)", jc.name, js.Kind)
		}
		c.jobs = append(c.jobs, jc)
	}
	return nil
}

// checkMethod rejects a transport method the adios middleware does not
// have ("" picks its default).
func checkMethod(method string) error {
	switch method {
	case "", "MPI", "POSIX", "ADAPTIVE", "STAGING":
		return nil
	}
	return fmt.Errorf("unknown transport method %q (want MPI | POSIX | ADAPTIVE | STAGING)", method)
}

// ApplySet applies one -set key=value override to the spec: axis names
// replace that axis's values (comma-separated scalars, labels regenerated
// from the axis format), everything else targets the conventional spec
// fields. Call Validate afterwards.
func ApplySet(s *Scenario, assignment string) error {
	key, val, ok := strings.Cut(assignment, "=")
	if !ok {
		return fmt.Errorf("scenario: -set wants key=value, got %q", assignment)
	}
	if !utf8.ValidString(assignment) {
		// A spec is JSON text, which cannot carry the bytes back.
		return fmt.Errorf("scenario: -set %q is not UTF-8", assignment)
	}
	key, val = strings.TrimSpace(key), strings.TrimSpace(val)

	for i := range s.Axes {
		if s.Axes[i].Name != key {
			continue
		}
		vals, err := parseValueList(val)
		if err != nil {
			return fmt.Errorf("scenario: -set %s: %w", key, err)
		}
		s.Axes[i].Values = vals
		return nil
	}

	// Every field override's number is parsed here, so each refuses what
	// it cannot hold the same way.
	var n int
	var f float64
	var b bool
	var err error
	switch key {
	case "samples", "osts", "num_osts", "procs", "writers", "ratio", "transport_osts":
		n, err = strconv.Atoi(val)
	case "size_mb":
		if f, err = strconv.ParseFloat(val, 64); err == nil {
			err = finite(f, val)
		}
	case "noise", "no_noise", "adapt", "failures":
		b, err = strconv.ParseBool(val)
	}
	if err != nil {
		return fmt.Errorf("scenario: -set %s: %v", key, err)
	}

	switch key {
	case "samples":
		s.Samples = n
		// An explicit override beats the per-value counts too.
		for i := range s.Axes {
			for j := range s.Axes[i].Values {
				s.Axes[i].Values[j].Samples = 0
			}
		}
	case "machine":
		s.Machine = val
	case "osts", "num_osts":
		s.NumOSTs = n
	case "noise":
		s.NoNoise = !b
	case "no_noise":
		s.NoNoise = b
	case "procs":
		s.Workload.Procs = n
	case "writers":
		if src := s.writerCountSource(); src != "" {
			return fmt.Errorf("scenario: -set writers=%d cannot take effect: the writer count comes from %s", n, src)
		}
		s.Workload.Writers = n
	case "ratio":
		s.Workload.WritersPerOST = n
	case "size_mb":
		s.Workload.SizeMB, s.Workload.Bytes = f, 0
	case "generator":
		s.Workload.Generator = val
	case "method":
		s.Transport.Method = val
	case "transport_osts":
		s.Transport.OSTs = n
	case "condition":
		s.Interference.Condition = val
	case "adapt":
		s.Transport.DisableAdaptation = !b
	case "failures":
		if !b {
			// Disarm the declared script without an axis.
			s.Interference.Failures = FailuresSpec{}
		} else if !s.Interference.Failures.declared() {
			return fmt.Errorf("scenario: -set failures=true but the spec declares no failure script")
		}
	case "stagger":
		s.Workload.Stagger = val
	case "seed_label":
		s.SeedLabel = val
	default:
		return fmt.Errorf("scenario: unknown -set key %q (axes: %v; fields: samples machine osts noise no_noise procs writers ratio size_mb generator method transport_osts condition adapt failures stagger seed_label)",
			key, axisNames(s))
	}
	return nil
}

// writerCountSource names what sets the writer count in place of
// Workload.Writers at every grid point, or returns "" when Writers counts:
// a positive WritersPerOST, a ratio axis, or an axis whose every value
// binds writers or ratio in its With bundle (resolve applies the same
// precedence).
func (s *Scenario) writerCountSource() string {
	if r := s.Workload.WritersPerOST; r > 0 {
		return fmt.Sprintf("writers_per_ost=%d (osts × %d; -set ratio changes it)", r, r)
	}
	for _, ax := range s.Axes {
		if ax.Name == "ratio" {
			return "the ratio axis (osts × ratio)"
		}
		bound := len(ax.Values) > 0
		for _, v := range ax.Values {
			_, w := v.With["writers"]
			_, r := v.With["ratio"]
			bound = bound && (w || r)
		}
		if bound {
			return fmt.Sprintf("the with bundles of every %s axis value", ax.Name)
		}
	}
	return ""
}

func axisNames(s *Scenario) []string {
	out := make([]string, len(s.Axes))
	for i, ax := range s.Axes {
		out[i] = ax.Name
	}
	return out
}

// parseValueList splits a -set axis override into scalar values.
func parseValueList(v string) ([]Value, error) {
	parts := strings.Split(v, ",")
	out := make([]Value, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty value in %q", v)
		}
		f, err := strconv.ParseFloat(part, 64)
		if err := finite(f, part); err != nil {
			return nil, err
		}
		if err == nil {
			out = append(out, NumValue(f))
		} else if part == "true" || part == "false" {
			out = append(out, BoolValue(part == "true"))
		} else {
			out = append(out, StrValue(part))
		}
	}
	return out, nil
}

// finite refuses NaN and ±Inf, which no spec knob takes: a non-finite
// size reaches the file system as a write of undefined length.
func finite(f float64, v string) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("%q is not a finite number", v)
	}
	return nil
}
