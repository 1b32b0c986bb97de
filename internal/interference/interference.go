// Package interference generates the external load that makes petascale IO
// performance variable (Section II of the paper): production background
// noise — other batch jobs and analysis clusters sharing the file system —
// and the paper's artificial interference program used in the Section IV
// evaluations (24 processes continuously writing 1 GB chunks, three per
// storage target across 8 targets).
package interference

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// NoiseConfig describes the stochastic production background load applied
// to a file system. It has three components:
//
//   - A global busy factor, drawn once per episode, that scales every OST's
//     service capacity (shared object-storage servers, network, and backend
//     links make machine-wide slowdowns correlated).
//   - Per-OST on/off episodes during which a target hosts a number of
//     external competing streams (other jobs writing, analysis reads).
//   - Hot-OST episodes: short, severe slowdowns of a few targets (e.g. an
//     attached analysis cluster reading recent output), producing the
//     transient imbalance of the paper's Figure 3.
type NoiseConfig struct {
	// Enabled turns the noise process on.
	Enabled bool

	// GlobalCV is the coefficient of variation of the machine-wide busy
	// factor (lognormal with mean 1, truncated to (0,1] as a slow factor
	// multiplier on top of per-OST state).
	GlobalCV float64

	// GlobalMeanEpisode is the mean duration, in seconds, between redraws
	// of the global busy factor.
	GlobalMeanEpisode float64

	// PerOSTMeanOn / PerOSTMeanOff are the mean durations, in seconds, of
	// an OST's busy/idle episodes.
	PerOSTMeanOn  float64
	PerOSTMeanOff float64

	// StreamsWhenOn is the mean number of external streams on a busy OST
	// (Poisson, at least 1 when busy).
	StreamsWhenOn float64

	// HotMeanEvery is the mean seconds between hot-OST episodes; zero
	// disables them.
	HotMeanEvery float64
	// HotDuration is the mean duration of a hot episode in seconds.
	HotDuration float64
	// HotOSTs is how many targets a hot episode strikes.
	HotOSTs int
	// HotSlowFactor is the service multiplier applied to hot targets
	// (e.g. 0.3 = the target runs at 30% speed).
	HotSlowFactor float64

	// Seed drives the noise processes; derive it per experiment sample.
	Seed int64
}

// DefaultProduction returns noise calibrated to reproduce the paper's
// production-environment variability (Table I: 40–60% bandwidth CoV on
// Jaguar and Franklin; Figure 3: average imbalance factor around 2 with
// transients beyond 3).
func DefaultProduction(seed int64) NoiseConfig {
	return NoiseConfig{
		Enabled:           true,
		GlobalCV:          0.65,
		GlobalMeanEpisode: 600,
		PerOSTMeanOn:      120,
		PerOSTMeanOff:     260,
		StreamsWhenOn:     2.0,
		HotMeanEvery:      90,
		HotDuration:       45,
		HotOSTs:           24,
		HotSlowFactor:     0.40,
		Seed:              seed,
	}
}

// Noise is a running production-noise generator. Start builds an empty
// Noise and arms it with Reset; a pooled world calls Reset again per
// replica (after the owning kernel and file system have been Reset),
// reusing its derived streams, Markov processes and process machines.
type Noise struct {
	fs  *pfs.FileSystem
	cfg NoiseConfig
	rng *rngx.Source

	global float64        // current machine-wide busy factor (0,1]
	busy   rngx.Lognormal // the busy level's distribution: mean 1, GlobalCV
	perOST []ostMood      // per-target state

	// Derived streams and Markov processes, grown on demand by Reset and
	// reseeded in place: a stream survives replicas that do not use it.
	grng      *rngx.Source
	hrng      *rngx.Source
	ostRng    []*rngx.Source
	ostLabels []string
	mm        []*rngx.MarkovOnOff

	// The noise processes' machines, one per process. arm() rewinds each
	// machine's program counter before every spawn, so the same values
	// serve every replica.
	globalC globalCont
	hotC    hotCont
	ostC    []ostCont
}

type ostMood struct {
	busyStreams int
	hotUntil    simkernel.Time
	hotFactor   float64
}

// The sub-processes a configuration enables.
func (c NoiseConfig) globalOn() bool { return c.GlobalCV > 0 }
func (c NoiseConfig) perOSTOn() bool { return c.PerOSTMeanOn > 0 && c.PerOSTMeanOff > 0 }
func (c NoiseConfig) hotOn() bool    { return c.HotMeanEvery > 0 && c.HotOSTs > 0 }

// Start launches the noise processes on the file system's kernel, as
// daemons (they never end). With Enabled false it returns an inert Noise.
func Start(fs *pfs.FileSystem, cfg NoiseConfig) *Noise {
	n := &Noise{fs: fs, rng: rngx.New(0)}
	n.globalC.n = n
	n.hotC.n = n
	n.Reset(cfg)
	return n
}

// Reset arms the noise for a replica: it fits the per-target state to the
// file system's target count, seeds every stream cfg enables and spawns the
// processes (the owning kernel must already have been Reset, which dropped
// an earlier replica's bodies and recycled their shells). Derivation order
// is part of the reproducibility contract: the master stream yields one
// draw for global, then one per OST in index order, then one for hot,
// counting only the sub-processes cfg enables. The machines read their
// parameters through n.cfg.
func (n *Noise) Reset(cfg NoiseConfig) {
	n.cfg = cfg
	n.global = 1
	n.busy = rngx.LognormalParams(1, cfg.GlobalCV)
	n.perOST = n.perOST[:0]
	for range n.fs.OSTs {
		n.perOST = append(n.perOST, ostMood{})
	}
	if !cfg.Enabled {
		return
	}
	n.rng.ReseedNamed(cfg.Seed, "interference")
	if cfg.globalOn() {
		if n.grng == nil {
			n.grng = rngx.New(0)
		}
		n.grng.ReseedNamed(n.rng.Int63(), "global")
	}
	if cfg.perOSTOn() {
		for i := len(n.mm); i < len(n.perOST); i++ {
			n.ostLabels = append(n.ostLabels, fmt.Sprintf("ost-%d", i))
			n.ostRng = append(n.ostRng, rngx.New(0))
			n.mm = append(n.mm, rngx.NewMarkovOnOff(n.ostRng[i], 1, 1)) // re-initialised below
			n.ostC = append(n.ostC, ostCont{n: n, i: i})
		}
		for i := range n.perOST {
			n.ostRng[i].ReseedNamed(n.rng.Int63(), n.ostLabels[i])
			m := n.mm[i]
			m.MeanOn, m.MeanOff = cfg.PerOSTMeanOn, cfg.PerOSTMeanOff
			m.Reinit()
		}
	}
	if cfg.hotOn() {
		if n.hrng == nil {
			n.hrng = rngx.New(0)
		}
		n.hrng.ReseedNamed(n.rng.Int63(), "hot")
	}
	n.arm()
}

// arm draws the initial noise state and spawns the processes. Each per-OST
// stream has drawn its Markov state in Reset and draws its stream count (if
// busy) here, after the global factor's draw from its own stream.
func (n *Noise) arm() {
	k := n.fs.K
	if n.cfg.globalOn() {
		n.global = n.drawGlobal(n.grng)
		n.applyAll()
		n.globalC.pc = 0
		k.SpawnDaemon(&n.globalC)
	}
	if n.cfg.perOSTOn() {
		for i := range n.perOST {
			if n.mm[i].On() {
				n.perOST[i].busyStreams = n.drawStreams(n.ostRng[i])
			}
			n.apply(i)
			n.ostC[i].pc = 0
			k.SpawnDaemon(&n.ostC[i])
		}
	}
	if n.cfg.hotOn() {
		n.hotC.pc = 0
		k.SpawnDaemon(&n.hotC)
	}
}

// The three noise processes as continuation machines: pc 0 is "about to
// sleep", pc 1 is "woken from the sleep". Each draws from its own stream,
// so the draw sequence depends only on its own wakeups.

// globalCont redraws the machine-wide busy factor each episode.
type globalCont struct {
	n  *Noise
	pc int
}

// Step implements simkernel.Cont.
func (g *globalCont) Step(c *simkernel.ContProc) bool {
	n := g.n
	for {
		switch g.pc {
		case 0:
			c.SleepSeconds(n.grng.Exp(maxf(n.cfg.GlobalMeanEpisode, 1)))
			g.pc = 1
			return false
		default:
			n.global = n.drawGlobal(n.grng)
			n.applyAll()
			g.pc = 0
		}
	}
}

// ostCont flips one target's busy/idle Markov state each transition.
type ostCont struct {
	n  *Noise
	i  int
	pc int
}

// Step implements simkernel.Cont.
func (o *ostCont) Step(c *simkernel.ContProc) bool {
	n, i := o.n, o.i
	mm := n.mm[i]
	for {
		switch o.pc {
		case 0:
			c.SleepSeconds(mm.NextTransition())
			o.pc = 1
			return false
		default:
			mm.Advance(mm.NextTransition())
			if mm.On() {
				n.perOST[i].busyStreams = n.drawStreams(n.ostRng[i])
			} else {
				n.perOST[i].busyStreams = 0
			}
			n.apply(i)
			o.pc = 0
		}
	}
}

// hotCont strikes a contiguous band of targets each hot episode.
type hotCont struct {
	n  *Noise
	pc int
}

// Step implements simkernel.Cont.
func (h *hotCont) Step(c *simkernel.ContProc) bool {
	n := h.n
	for {
		switch h.pc {
		case 0:
			c.SleepSeconds(n.hrng.Exp(n.cfg.HotMeanEvery))
			h.pc = 1
			return false
		default:
			dur := n.hrng.Exp(maxf(n.cfg.HotDuration, 1))
			until := c.Now() + simkernel.FromSeconds(dur)
			// Strike a contiguous band of targets (analysis reads hit
			// the stripes of one recent output, which are adjacent).
			start := n.hrng.Intn(len(n.fs.OSTs))
			for j := 0; j < n.cfg.HotOSTs; j++ {
				idx := (start + j) % len(n.fs.OSTs)
				n.perOST[idx].hotUntil = until
				n.perOST[idx].hotFactor = n.cfg.HotSlowFactor *
					(0.75 + 0.5*n.hrng.Float64()) // 0.75x–1.25x severity spread
				n.apply(idx)
				idx2 := idx
				n.fs.K.At(until, func() { n.apply(idx2) }) //repro:allow hotpath one closure per struck target per hot episode — episodes are minutes apart in virtual time
			}
			h.pc = 0
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (n *Noise) drawGlobal(r *rngx.Source) float64 {
	// Lognormal busy level with mean 1; values above 1 mean "quieter than
	// typical", clamped since slowFactor is a pure degradation.
	v := r.DrawLognormal(n.busy)
	if v > 1 {
		v = 1
	}
	if v < 0.05 {
		v = 0.05
	}
	return v
}

func (n *Noise) drawStreams(r *rngx.Source) int {
	s := r.Poisson(n.cfg.StreamsWhenOn)
	if s < 1 {
		s = 1
	}
	return s
}

// apply pushes OST i's combined noise state into the pfs model: the global
// busy factor degrades the network/OSS side everywhere (slowing every
// client stream, cache-absorbed or not), while disk-side slowness combines
// the global factor with any hot episode on this target.
func (n *Noise) apply(i int) {
	m := &n.perOST[i]
	slow := n.global
	if n.fs.K.Now() < m.hotUntil && m.hotFactor > 0 {
		slow *= m.hotFactor
	}
	// Episode boundaries frequently recompute to the value already in
	// force (a hot window expiring on an OST whose Markov state also just
	// went idle, or a global redraw landing on the same clamp). Skip the
	// setters then: each one advances flow accounting and replans the
	// target, which is wasted work — and wasted event churn — when nothing
	// changed.
	o := n.fs.OST(i)
	if slow != o.SlowFactor() {
		o.SetSlowFactor(slow)
	}
	if n.global != o.IngestFactor() {
		o.SetIngestFactor(n.global)
	}
	if m.busyStreams != o.ExternalStreams() {
		o.SetExternalStreams(m.busyStreams)
	}
}

func (n *Noise) applyAll() {
	for i := range n.perOST {
		n.apply(i)
	}
}

// GlobalFactor exposes the current machine-wide busy factor (diagnostics).
func (n *Noise) GlobalFactor() float64 { return n.global }

// ArtificialConfig reproduces the paper's Section IV interference program:
// "External interference is introduced through a separate program that
// continuously writes to a file striped across 8 storage targets ... Three
// processes each write 1 GB continuously to a single storage target, for a
// total of 24 processes."
type ArtificialConfig struct {
	// OSTs are the storage targets to load; default is the first 8.
	OSTs []int
	// ProcsPerOST is the number of continuous writers per target (3).
	ProcsPerOST int
	// ChunkBytes is each writer's repeated write size (1 GB).
	ChunkBytes float64
}

// DefaultArtificial returns the paper's exact configuration against the
// given file system.
func DefaultArtificial(fs *pfs.FileSystem) ArtificialConfig {
	osts := make([]int, 8)
	for i := range osts {
		osts[i] = i % len(fs.OSTs)
	}
	return ArtificialConfig{OSTs: osts, ProcsPerOST: 3, ChunkBytes: 1 * pfs.GB}
}

// Artificial is a running artificial-interference workload.
type Artificial struct {
	Writes int // completed 1 GB chunk writes (diagnostics)
}

// StartArtificial launches the interference writers on the file system's
// kernel, as daemons: they run until the kernel resets or shuts down.
func StartArtificial(fs *pfs.FileSystem, cfg ArtificialConfig) *Artificial {
	if len(cfg.OSTs) == 0 {
		cfg = DefaultArtificial(fs)
	}
	if cfg.ProcsPerOST <= 0 {
		cfg.ProcsPerOST = 3
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1 * pfs.GB
	}
	a := &Artificial{}
	for _, ost := range cfg.OSTs {
		for j := 0; j < cfg.ProcsPerOST; j++ {
			fs.K.SpawnDaemon(&interferer{a: a, o: fs.OST(ost), bytes: cfg.ChunkBytes})
		}
	}
	return a
}

// interferer is one writer of the artificial interference program: chunk
// writes to one target back to back.
type interferer struct {
	a       *Artificial
	o       *pfs.OST
	bytes   float64
	writing bool
	w       pfs.OSTWriteOp
}

// Step implements simkernel.Cont.
func (m *interferer) Step(c *simkernel.ContProc) bool {
	for {
		if !m.writing {
			m.w.Begin(m.o, m.bytes)
			m.writing = true
		}
		if !m.w.Step(c) {
			return false
		}
		m.writing = false
		m.a.Writes++
	}
}
