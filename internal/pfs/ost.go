package pfs

import (
	"math"

	"repro/internal/simkernel"
)

// completionEps is the byte threshold below which a flow's residue is
// considered complete; it absorbs floating-point drift from piecewise-
// constant rate integration.
const completionEps = 1e-3

// flow is one in-progress write stream on an OST. Flows are held by value,
// so steady-state write traffic reuses the OST's flow slice and does not
// allocate.
type flow struct {
	remaining float64         // bytes left to ingest
	p         *simkernel.Proc // woken at completion; nil means no waiter
}

// flushWaiter waits until the OST's cumulative drained byte count reaches a
// watermark (FIFO cache drain means every byte ingested before the flush
// call is on disk by then). The watermark is the OST's ingested total when
// the flush began; that total never decreases, so the waiter queue is
// sorted by watermark and the satisfied waiters are always a prefix. The
// waiter is the leader of a cohort of flush walks' hops, which carries
// their walk on once fired; a walk that parks behind a waiter at the same
// watermark, with the same targets left, joins that waiter's cohort
// instead of queueing one of its own.
type flushWaiter struct {
	watermark float64
	hop       *flushHop
}

// OSTStats aggregates per-target counters for experiment analysis.
type OSTStats struct {
	BytesIngested  float64
	BytesDrained   float64
	WritesStarted  int
	WritesFinished int
	MaxConcurrency int
	// WritesFailed and ReadsFailed count client operations abandoned with
	// ErrTargetDown because this target was Dead.
	WritesFailed int
	ReadsFailed  int
}

// OST models one object storage target as a fluid-flow server with a
// write-back cache. All methods must be called in kernel or process context
// of the owning kernel.
type OST struct {
	ID int //repro:reset-skip identity, fixed at construction

	k   *simkernel.Kernel
	cfg *Config //repro:reset-skip aliases &FileSystem.Cfg, which Reset reassigns in place

	flows        []flow
	flowRate     float64                     // planned ingest rate of every flow, bytes/sec
	minRemaining float64                     // least remaining over flows; meaningless while flows is empty
	waiters      simkernel.Ring[flushWaiter] // FIFO, sorted by watermark

	// live aliases the file system's bitset of targets that may hold flows
	// or dirty bytes: StartWrite sets this target's bit, and advance clears
	// it once the target has no flows and an empty cache.
	live *[]uint64 //repro:reset-skip aliases &FileSystem.live, which FileSystem.Reset clears

	// eff aliases the file system's efficiency-curve tables.
	eff *effTables //repro:reset-skip aliases &FileSystem.eff, which FileSystem.Reset re-arms

	// External interference knobs (driven by the interference package).
	extStreams   int     // competing external write streams on this target
	slowFactor   float64 // disk-side degradation multiplier in (0,1]
	ingestFactor float64 // network/OSS-side degradation multiplier in (0,1]

	// Health lifecycle (driven by the failure injector; see health.go).
	health       HealthState
	healthFactor float64                  // health-driven disk multiplier in (0,1]
	stateSince   simkernel.Time           // when the current health state was entered
	stateSecs    [NumHealthStates]float64 // completed residence time per state, seconds
	downErr      error                    //repro:reset-skip immutable identity error, built at construction

	// Fluid state, valid as of lastUpdate.
	cacheLevel    float64 // dirty bytes in cache
	ingestedTotal float64 // cumulative bytes accepted
	drainedTotal  float64 // cumulative bytes written to disk
	drainRate     float64 // current drain bytes/sec (for our data)
	effCache      float64 // cache capacity available to us (shrinks under external load)
	lastUpdate    simkernel.Time

	boundary   simkernel.Timer
	boundaryAt simkernel.Time // absolute deadline of the pending boundary timer
	onBoundary func()         //repro:reset-skip cached boundary callback, built once per OST

	// Replan cache: planValid is invalidated by any membership or knob
	// change; while it holds and the cache-full regime is unchanged, a
	// boundary event reuses the planned rate instead of re-running plan
	// (the common case for flush-watermark boundaries).
	planValid     bool
	planCacheFull bool
	planInflow    float64 // sum of planned per-flow rates

	// recomputed reports that recompute has run since the fluid state last
	// changed: every change either advances the clock (advance with dt > 0
	// clears it) or ends in a recompute. While it holds, a recompute whose
	// inputs did not change would re-derive the same boundary, so a flush
	// waiter queued behind an existing head, or joining the back waiter's
	// cohort, skips it.
	recomputed bool

	// jobAcct attributes traffic per job id (index 0 = unattributed); see
	// jobacct.go.
	jobAcct []JobIO

	Stats OSTStats
}

// newOST builds a target's identity (index, kernel, config, live bitset,
// curve tables, down error, boundary callback) and arms the rest with reset.
func newOST(k *simkernel.Kernel, cfg *Config, live *[]uint64, eff *effTables, id int) *OST {
	o := &OST{ID: id, k: k, cfg: cfg, live: live, eff: eff, downErr: &TargetDownError{OST: id}}
	o.onBoundary = func() {
		o.boundary = simkernel.Timer{}
		o.advance()
		o.recompute()
	}
	o.reset()
	return o
}

// reset arms the OST for a replica, reusing the flow slice and waiter ring
// of an earlier one. The owning kernel has already been Reset, so pending
// boundary timers are gone and the clock is back at zero.
func (o *OST) reset() {
	o.flows = o.flows[:0]
	o.flowRate = 0
	o.minRemaining = 0
	o.waiters.Reset()
	o.extStreams = 0
	o.slowFactor = 1
	o.ingestFactor = 1
	o.health = Healthy
	o.healthFactor = 1
	o.stateSince = o.k.Now()
	for i := range o.stateSecs {
		o.stateSecs[i] = 0
	}
	o.cacheLevel = 0
	o.ingestedTotal = 0
	o.drainedTotal = 0
	o.drainRate = 0
	o.effCache = o.cfg.CacheBytes
	o.lastUpdate = o.k.Now()
	o.boundary = simkernel.Timer{}
	o.boundaryAt = 0
	o.planValid = false
	o.planCacheFull = false
	o.planInflow = 0
	o.recomputed = false
	for i := range o.jobAcct {
		o.jobAcct[i] = JobIO{}
	}
	o.jobAcct = o.jobAcct[:0]
	o.Stats = OSTStats{}
}

// ExternalStreams returns the current external competing stream count.
func (o *OST) ExternalStreams() int { return o.extStreams }

// SlowFactor returns the current disk-side degradation multiplier.
func (o *OST) SlowFactor() float64 { return o.slowFactor }

// IngestFactor returns the current network-side degradation multiplier.
func (o *OST) IngestFactor() float64 { return o.ingestFactor }

// SetIngestFactor changes the network/OSS-side degradation multiplier
// (clamped to (0, 1]): machine-wide backend load slows every client stream,
// including cache-absorbed writes that never touch the disk.
func (o *OST) SetIngestFactor(f float64) {
	if f <= 0 {
		f = 1e-3
	}
	if f > 1 {
		f = 1
	}
	if f == o.ingestFactor {
		return
	}
	o.advance()
	o.ingestFactor = f
	o.planValid = false
	o.recompute()
}

// CacheLevel returns the current dirty-byte count (advancing fluid state to
// the present first).
func (o *OST) CacheLevel() float64 {
	o.advance()
	return o.cacheLevel
}

// ActiveFlows returns the number of in-progress internal write streams.
func (o *OST) ActiveFlows() int { return len(o.flows) }

// SetExternalStreams changes the number of competing external streams and
// re-plans all in-progress flows.
func (o *OST) SetExternalStreams(m int) {
	if m < 0 {
		m = 0
	}
	if m == o.extStreams {
		return
	}
	o.advance()
	o.extStreams = m
	o.planValid = false
	o.recompute()
}

// SetSlowFactor changes the transient degradation multiplier (clamped to
// (0, 1]) and re-plans all in-progress flows.
func (o *OST) SetSlowFactor(s float64) {
	if s <= 0 {
		s = 1e-3
	}
	if s > 1 {
		s = 1
	}
	if s == o.slowFactor {
		return
	}
	o.advance()
	o.slowFactor = s
	o.planValid = false
	o.recompute()
}

// StartWrite begins ingesting bytes on this OST as one more client stream
// and wakes p (when not nil) when the final byte is accepted. It returns
// immediately; OST.writeCont is the client-side step built on it.
func (o *OST) StartWrite(bytes float64, p *simkernel.Proc) {
	if bytes < 0 {
		panic("pfs: negative write size")
	}
	o.advance()
	if len(o.flows) == 0 || bytes < o.minRemaining {
		o.minRemaining = bytes
	}
	o.flows = append(o.flows, flow{remaining: bytes, p: p})
	(*o.live)[o.ID>>6] |= 1 << (o.ID & 63)
	o.planValid = false
	o.Stats.WritesStarted++
	if len(o.flows) > o.Stats.MaxConcurrency {
		o.Stats.MaxConcurrency = len(o.flows)
	}
	o.recompute()
}

// effDisk evaluates the disk-efficiency curve for the current stream mix.
func (o *OST) effDisk(streams int) float64 { return o.eff.disk.at(streams) }

// effNet evaluates the network-efficiency curve for the current stream mix.
func (o *OST) effNet(streams int) float64 { return o.eff.net.at(streams) }

// plan computes, from current membership, the shared per-flow ingest rate
// and the drain rate. It returns (sumInflow, drain) and records the plan
// signature so unchanged boundary events can skip the next full replan.
func (o *OST) plan() (sumInflow, drain float64) {
	n := len(o.flows)
	m := o.extStreams
	streams := n + m
	if streams < 1 {
		streams = 1
	}

	// Total disk bandwidth under the current interleave level, transient
	// slowness, and health state (a Rebuilding target's rebuild traffic
	// taxes the disk through healthFactor < 1; Healthy is exactly 1, so the
	// zero-failure plan is bit-identical to the pre-health model); our share
	// is proportional to our stream presence (a lone drainer still competes
	// with external streams).
	d := o.cfg.DiskBW * o.effDisk(streams) * o.slowFactor * o.healthFactor
	drainWeight := float64(n)
	if drainWeight < 1 {
		drainWeight = 1
	}
	ourDisk := d * drainWeight / (drainWeight + float64(m))

	// External streams keep their share of the write-back cache dirty with
	// their own data, so the capacity available for absorbing our bursts
	// shrinks proportionally. This is what makes a busy target slow even
	// for writes that would otherwise be cache-absorbed.
	o.effCache = o.cfg.CacheBytes / float64(1+m)

	o.planValid = true
	o.planCacheFull = o.cacheLevel >= o.effCache-completionEps

	if o.health == Dead {
		// A dead target neither accepts nor drains bytes: in-flight flows
		// stall at rate zero and resume when the target revives, like
		// Lustre clients blocking on a failed OST.
		o.flowRate = 0
		o.planInflow = 0
		return 0, 0
	}

	if n == 0 {
		o.planInflow = 0
		if o.cacheLevel > 0 {
			return 0, ourDisk
		}
		return 0, 0
	}

	// Network-side ingest available to our flows, degraded by machine-wide
	// backend load; the same factor caps each client stream.
	ing := o.cfg.IngestBW * o.effNet(streams) * o.ingestFactor
	ourIngest := ing * float64(n) / float64(n+m)

	budget := ourIngest
	if o.planCacheFull {
		// Cache cannot absorb: inflow throttles to the drain rate.
		budget = math.Min(ourIngest, ourDisk)
	}

	// Every flow gets the same fair share of the budget, capped at the
	// (degraded) client rate: min(ClientCap, budget/n). The rate is added
	// once per flow rather than multiplied by n; the goldens pin that sum's
	// rounding.
	r := min(o.cfg.ClientCap*o.ingestFactor, budget/float64(n))
	o.flowRate = r
	for range o.flows {
		sumInflow += r
	}
	o.planInflow = sumInflow
	return sumInflow, ourDisk
}

// advance integrates the fluid state from lastUpdate to now at the rates
// currently in force, completing flows and waking flush waiters whose
// conditions are met. A target left with no flows and an exactly empty
// cache leaves the live set: advancing it again would only move lastUpdate.
func (o *OST) advance() {
	now := o.k.Now()
	dt := (now - o.lastUpdate).Seconds()
	o.lastUpdate = now
	if dt < 0 {
		panic("pfs: time went backwards")
	}
	if dt == 0 {
		// Every advance ends with completions fired, and nothing changes
		// between events at one timestamp, so there is nothing to scan for.
		return
	}
	o.recomputed = false

	var inflow float64
	anyDone := false
	lo := math.Inf(1)
	for i := range o.flows {
		f := &o.flows[i]
		adv := o.flowRate * dt
		if adv > f.remaining {
			adv = f.remaining
		}
		f.remaining -= adv
		inflow += adv
		if f.remaining <= completionEps {
			anyDone = true
		}
		if f.remaining < lo {
			lo = f.remaining
		}
	}
	o.minRemaining = lo
	o.ingestedTotal += inflow

	// Drain applies to dirty bytes plus pass-through of fresh inflow.
	drainable := o.cacheLevel + inflow
	drained := o.drainRate * dt
	if drained > drainable {
		drained = drainable
	}
	o.drainedTotal += drained
	// Invariant: cacheLevel == ingestedTotal - drainedTotal, exactly. Never
	// clamp it independently — that would strand bytes and leave flush
	// watermarks unreachable. Event-time rounding can overshoot CacheBytes
	// by a sub-byte sliver, which plan() already treats as "full".
	o.cacheLevel = drainable - drained
	if o.cacheLevel < 0 {
		o.cacheLevel = 0
	}

	o.fireCompletions(anyDone)
	if len(o.flows) == 0 && o.cacheLevel == 0 {
		(*o.live)[o.ID>>6] &^= 1 << (o.ID & 63)
	}
}

// fireCompletions completes exhausted flows (only scanned when the caller's
// integration pass saw one hit zero), re-deriving the least remaining over
// the flows kept, and satisfied flush waiters: each one's leading hop is
// scheduled at the current time, the slot the flushing process's wakeup
// would take.
func (o *OST) fireCompletions(anyDone bool) {
	if anyDone {
		keep := o.flows[:0]
		lo := math.Inf(1)
		for _, f := range o.flows {
			if f.remaining <= completionEps {
				o.Stats.WritesFinished++
				if f.p != nil {
					f.p.Wake()
				}
			} else {
				keep = append(keep, f)
				if f.remaining < lo {
					lo = f.remaining
				}
			}
		}
		o.minRemaining = lo
		if len(keep) != len(o.flows) {
			o.planValid = false
			o.flows = keep
		}
	}

	for o.waiters.Len() > 0 && o.drainedTotal+completionEps >= o.waiters.Front().watermark {
		o.k.AtEvent(o.k.Now(), o.waiters.Pop().hop)
	}
	o.Stats.BytesIngested = o.ingestedTotal
	o.Stats.BytesDrained = o.drainedTotal
}

// recompute re-plans rates and schedules the next boundary event. Must be
// called after advance whenever membership or load changed. When the plan
// signature is intact — no membership or knob change since the last plan and
// the cache-full regime unchanged — the planned rates are reused and only
// the next boundary is recomputed (flush-watermark boundaries and no-op
// wakeups hit this path).
func (o *OST) recompute() {
	o.recomputed = true
	var sumInflow, drain float64
	if o.planValid && o.planCacheFull == (o.cacheLevel >= o.effCache-completionEps) {
		sumInflow, drain = o.planInflow, o.drainRate
	} else {
		sumInflow, drain = o.plan()
	}
	// Effective drain is limited by what is available (dirty + inflow).
	o.drainRate = drain

	next := math.Inf(1)

	// Flow completions: the earliest is the least remaining's, because
	// correctly rounded division by a positive rate is monotone.
	if r := o.flowRate; r > 0 && len(o.flows) > 0 {
		next = o.minRemaining / r
	}

	// Cache filling to the currently effective capacity (rate change
	// boundary; the capacity shrinks while external streams hold cache).
	fill := sumInflow - drain
	if o.cacheLevel > 0 || sumInflow > drain {
		if fill > 0 && o.cacheLevel < o.effCache {
			if t := (o.effCache - o.cacheLevel) / fill; t < next {
				next = t
			}
		}
	}

	// Flush waiters: time until the earliest watermark (the queue head)
	// drains. The drain consumes dirty bytes first (FIFO), so progress
	// toward a watermark w is bounded by drainedTotal growth at rate
	// min(drain, available).
	if o.waiters.Len() > 0 && drain > 0 {
		needed := o.waiters.Front().watermark - o.drainedTotal
		if needed <= completionEps {
			next = 0
		} else {
			// drainedTotal advances at rate min(drain, cacheLevel/dt+inflow)
			// ≈ drain while dirty bytes remain; the watermark is within the
			// dirty region by construction.
			if t := needed / drain; t < next {
				next = t
			}
		}
	}

	if math.IsInf(next, 1) {
		o.boundary.Cancel()
		o.boundary = simkernel.Timer{}
		return // quiescent
	}
	// Clamp to one virtual nanosecond: crossing times smaller than the
	// clock resolution would otherwise schedule zero-duration events and
	// spin at a single timestamp.
	if next < 1e-9 {
		next = 1e-9
	}
	// Flow-completion and watermark crossings are fixed absolute times:
	// while rates hold, successive recomputes re-derive the same deadline.
	// Keeping the pending timer then spares the queue a lazy-cancelled
	// corpse and a reinsertion per recompute — the dominant event churn.
	if at := o.k.Now() + simkernel.FromSeconds(next); !o.boundary.Active() || o.boundaryAt != at {
		o.boundary.Cancel()
		o.boundary = o.k.AfterSeconds(next, o.onBoundary)
		o.boundaryAt = at
	}
}
