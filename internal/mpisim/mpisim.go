// Package mpisim provides an MPI-like process and message-passing substrate
// on top of the simulation kernel: a world of ranks and tagged
// point-to-point messages with source/tag matching.
//
// The paper's adaptive IO method (Section III) is a set of message-driven
// roles — writers, sub-coordinators, one coordinator — layered onto the
// application's existing MPI ranks; this package supplies exactly the
// communication semantics those algorithms assume: reliable, ordered
// delivery per (source, tag) pair, and receives with wildcards. Rank bodies
// are continuation machines (RankCont, cont.go).
package mpisim

import (
	"fmt"
	"time"

	"repro/internal/simkernel"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message is a delivered point-to-point message.
type Message struct {
	From int
	Tag  int
	Data any
}

// Options configures a world.
type Options struct {
	// Latency is the one-way delivery delay for a control message
	// (default 5µs — interconnect-scale, negligible against IO times but
	// enough to keep causality realistic).
	Latency time.Duration
	// Job tags every process the world launches with a job attribution id
	// (simkernel.Proc.Job). 0 leaves processes unattributed — the
	// single-application behaviour. Co-scheduled job mixes give each
	// application world its own id so the file system can attribute
	// per-job traffic.
	Job int
}

// World is a communicator: a set of ranks sharing a kernel. Its size is
// fixed for a replica; the next replica's NewWorld may change it.
type World struct {
	k       *simkernel.Kernel //repro:reset-skip identity: set by NewWorld, whose slab belongs to this kernel
	latency simkernel.Time
	job     int
	ranks   []*Rank // capacity holds every rank built so far, kept for a later, larger replica

	// freeDel recycles delivery events: a send in steady state reuses a
	// fired event object instead of allocating a closure.
	freeDel []*delivery //repro:reset-skip freelist of inert fired events, deliberately kept across Reset

	// shells are the persistent continuation rank shells, built by the
	// first LaunchCont and rebound to fresh bodies on every later launch
	// (one launch batch per world at a time).
	shells []rankShell //repro:reset-skip rebound by the next LaunchCont; stale bodies are unreachable after kernel Reset

	// Stats
	MessagesSent int
}

// delivery is a recycled message-delivery event (simkernel.EventFirer):
// sends schedule one of these instead of a closure, so steady-state
// messaging allocates nothing beyond the payload's interface box.
type delivery struct {
	w   *World
	dst *Rank
	m   Message
}

// Fire hands the message to its destination. The event object returns to
// the world's freelist before delivery runs, because delivery may itself
// send (and so pop the freelist).
//
//repro:hotpath
func (d *delivery) Fire() {
	dst, m := d.dst, d.m
	d.dst = nil
	d.m = Message{}
	d.w.freeDel = append(d.w.freeDel, d)
	dst.deliver(m)
}

// send schedules delivery of one message after the world's latency.
//
//repro:hotpath
func (w *World) send(from, to, tag int, data any) {
	if to < 0 || to >= len(w.ranks) {
		panic(fmt.Sprintf("mpisim: Send to invalid rank %d (size %d)", to, len(w.ranks)))
	}
	w.MessagesSent++
	var d *delivery
	if n := len(w.freeDel); n > 0 {
		d = w.freeDel[n-1]
		w.freeDel[n-1] = nil
		w.freeDel = w.freeDel[:n-1]
	} else {
		d = &delivery{w: w}
	}
	d.dst = w.ranks[to]
	d.m = Message{From: from, Tag: tag, Data: data}
	w.k.AtEvent(w.k.Now()+w.latency, d)
}

// NewWorld creates a world with the given number of ranks on kernel k,
// armed by reset. Worlds come from a slab local to the kernel (see
// simkernel.Local), so after a kernel Reset the replica's first world
// re-arms the previous replica's first, its second the second, and so on:
// world creation order is deterministic per replica, so position in order
// is a stable identity, and a reused world keeps its ranks, shells and
// freelists. Nothing may hold a world past its kernel's next Reset.
//
//repro:hotpath
func NewWorld(k *simkernel.Kernel, size int, opt Options) *World {
	w := simkernel.Local[simkernel.Slab[World]](k).Reuse()
	w.k = k
	w.reset(size, opt)
	return w
}

// reset arms the world for a replica of size ranks on a kernel that has
// itself been Reset: message statistics and every rank's mailbox are
// cleared, and the latency/job options set. NewWorld ends in it, on a new
// world or on one a previous replica left, which keeps its ranks (and
// their rings), rank shells and delivery-event freelist, so it runs its
// next replica bit-identically to a freshly built one while recycling all
// of its steady-state allocations (the world-reuse determinism contract,
// pinned by cluster's pool tests). A smaller size reslices the ranks; a
// larger one builds only the ranks never built before.
//
//repro:hotpath
func (w *World) reset(size int, opt Options) {
	if size <= 0 {
		panic("mpisim: world size must be positive")
	}
	if size > cap(w.ranks) {
		w.grow(size)
	}
	lat := opt.Latency
	if lat == 0 {
		lat = 5 * time.Microsecond
	}
	w.latency = simkernel.Time(lat)
	w.job = opt.Job
	w.MessagesSent = 0
	// The ranks a shrinking world drops are cleared too, so the ranks
	// past its size hold no stale messages when a later replica regrows.
	for _, r := range w.ranks[:max(len(w.ranks), size)] {
		r.queue.Reset()
		// Waiters parked at reset time belong to processes the kernel
		// Reset already dropped; each is embedded in its RecvOp.
		r.waiters.Reset()
	}
	w.ranks = w.ranks[:size]
}

// grow extends the rank table's capacity to size, keeping every rank built
// so far and building the rest.
func (w *World) grow(size int) {
	built := w.ranks[:cap(w.ranks)]
	ranks := make([]*Rank, size)
	copy(ranks, built)
	backing := make([]Rank, size-len(built))
	for i := range backing {
		backing[i] = Rank{w: w, rank: len(built) + i}
		ranks[len(built)+i] = &backing[i]
	}
	w.ranks = ranks[:len(w.ranks)]
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Kernel returns the underlying simulation kernel.
func (w *World) Kernel() *simkernel.Kernel { return w.k }

// Job returns the world's job attribution id (0 = unattributed).
func (w *World) Job() int { return w.job }

// recvWaiter is a rank waiting in RecvCont with a match pattern.
type recvWaiter struct {
	from, tag int
	msg       Message // filled in by a matching Send before wakeup
	has       bool
	p         *simkernel.Proc
}

func matches(wantFrom, wantTag int, m Message) bool {
	return (wantFrom == AnySource || wantFrom == m.From) &&
		(wantTag == AnyTag || wantTag == m.Tag)
}

// Rank is one process in a world.
type Rank struct {
	w    *World
	rank int

	queue   simkernel.Ring[Message]
	waiters simkernel.Ring[*recvWaiter]
}

// Rank returns this rank's index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// World returns the enclosing world.
func (r *Rank) World() *World { return r.w }

// Send delivers data to rank `to` with the given tag after the world's
// latency. Send never blocks (buffered/eager semantics — the algorithm
// messages in this codebase are all small control messages and indices).
func (r *Rank) Send(to, tag int, data any) {
	r.w.send(r.rank, to, tag, data)
}

// deliver runs in kernel context: hand the message to the oldest matching
// waiter, or queue it.
func (dst *Rank) deliver(m Message) {
	if w, ok := simkernel.RemoveFirst(&dst.waiters, m, waiterWants); ok {
		w.msg = m
		w.has = true
		w.p.Wake()
		return
	}
	dst.queue.Push(m)
}

// waiterWants reports whether the waiter w, still empty, accepts m.
//
//repro:hotpath
func waiterWants(m Message, w *recvWaiter) bool {
	return !w.has && matches(w.from, w.tag, m)
}

// SendFrom delivers a message that reports rank `asFrom` as its sender —
// used by helper-role processes that logically act as their host rank.
func (r *Rank) SendFrom(asFrom, to, tag int, data any) {
	r.w.send(asFrom, to, tag, data)
}

// TryRecv returns a matching queued message without blocking.
func (r *Rank) TryRecv(from, tag int) (Message, bool) {
	return simkernel.RemoveFirst(&r.queue, Message{From: from, Tag: tag}, queuedMatches)
}

// queuedMatches reports whether the queued message m fits the receive
// pattern carried in want's From and Tag.
//
//repro:hotpath
func queuedMatches(want, m Message) bool {
	return matches(want.From, want.Tag, m)
}

// Pending reports the number of queued undelivered messages at this rank.
func (r *Rank) Pending() int { return r.queue.Len() }
