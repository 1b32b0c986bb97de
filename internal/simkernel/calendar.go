package simkernel

import "math"

// The calendar event queue: a ladder queue (Tang, Goh and Thng, 2005) behind
// the 4-ary heap. The timer-churn regime this kernel lives in — OST boundary
// timers cancelled and rescheduled on every replanning pass, phase clocks
// seconds ahead of a microsecond-scale present, barrier storms that release
// thousands of writers at once — wants exact (time, seq) order for the
// imminent events the loop is about to fire, O(1) insertion for the
// far-future mass that is likely to be cancelled before it matters, and a
// heap that stays shallow when a storm lands in one stretch of time. The
// queue therefore has three tiers:
//
//   - Near tier: the 4-ary min-heap (kernel.go's heapPush/heapPopMin),
//     holding every item earlier than farEdge except those scheduled at the
//     current time, which wait on the now lane (kernel.go). The loop pops
//     from these two only, so pop order is exact.
//   - Rungs: calendars of nBuckets unsorted buckets whose width is a power
//     of two. rungs[0] is the top rung; each deeper rung spans one bucket of
//     its parent at 1/nBuckets of the parent's width, so the deepest rung
//     holds the earliest items. When the heap drains, the earliest non-empty
//     bucket of the deepest rung is poured into it (heapified in one Floyd
//     pass) — unless it holds more than splitMin items and is wider than
//     1 ns, in which case its items are spread over a new child rung
//     instead. A rung with no items left hands control back to its parent.
//     Buckets are singly linked lists through one node array kept across
//     Reset, so refilling them allocates nothing once warm.
//   - Overflow: items past the top rung's end, unsorted. When every rung is
//     dry the top rung is re-spanned over the overflow at the narrowest
//     power-of-two width that covers it.
//
// A queue item may stand for a batch of events at one time (see AtEvent):
// its key is the first member's (time, seq), and its members hang off that
// event through eventRec.next. Cancelled members are released when a pop,
// pour, split, re-span or compaction reaches them, never heap-ordered.
//
// Correctness does not depend on the geometry: every item in the heap is
// earlier than farEdge, every rung item is at or past it, the rungs' spans
// are contiguous and ordered, and pours happen only when the heap is empty,
// so the heap minimum is always the global minimum and the pop sequence is
// the same total (time, seq) order the plain heap produced (see
// calendar_test.go's property test and order_test.go's fuzz oracle).

const (
	// nBuckets is the bucket count of a rung, and rungShift its log2: a
	// child rung's buckets are 1<<rungShift times narrower than its parent's.
	nBuckets  = 64
	rungShift = 6
	// splitMin is the bucket size above which a bucket is split into a
	// child rung rather than poured into the heap whole.
	splitMin = 64
	// defaultCalShift sets the initial top-rung bucket width (1.05 virtual
	// ms): wide enough that an IO phase's device-rate events stay within the
	// top rung, narrow enough that each pour hands the heap a small batch.
	defaultCalShift = 20
	defaultCalWidth = Time(1) << defaultCalShift
)

// calNode is one rung item, linked into its bucket's list. Node 0 is a
// sentinel, so a zero link ends a list and a zero rung is empty.
type calNode struct {
	at   Time
	seq  uint64
	id   int32 // pool id of the item's first live event
	next int32 // next node of the bucket, or 0
}

// rung is one calendar of nBuckets buckets of width 1<<shift.
type rung struct {
	base  Time            // left edge of bucket 0
	end   Time            // items at or past end belong to the parent rung
	shift uint8           // log2 of the bucket width
	cur   int             // first bucket not yet poured or split
	head  [nBuckets]int32 // first node of each bucket, 0 when empty
}

// newRung returns an empty rung whose bucket 0 starts at base, ending at
// end or, for end <= base, after its last bucket (saturated at the largest
// time).
func newRung(base, end Time, shift uint8) rung {
	if end <= base {
		end = base + nBuckets<<shift
		if end <= base || shift > 62-rungShift {
			end = math.MaxInt64
		}
	}
	return rung{base: base, end: end, shift: shift}
}

// eventCount reports the events held across all tiers and the now lane
// (including lazily-cancelled ones, and every member of a batch): the pool
// slots in use, since the event that is firing has already been released.
//
//repro:hotpath
func (k *Kernel) eventCount() int {
	return len(k.pool) - len(k.free)
}

// enqueue routes an item to its tier. k.farEdge is the left edge of the
// earliest bucket that can still hold items — the boundary between the near
// heap and the rungs — maintained by pourNext/respan/resetQueue.
//
//repro:hotpath
func (k *Kernel) enqueue(it heapItem) {
	if it.at < k.farEdge {
		k.queue = heapPush(k.queue, it)
		return
	}
	k.enqueueFar(it)
}

// enqueueFar routes an item at or past the near/far boundary into the
// deepest rung that covers its time, or into the overflow past the top
// rung's end.
//
//repro:hotpath
func (k *Kernel) enqueueFar(it heapItem) {
	for d := len(k.rungs) - 1; d >= 0; d-- {
		if r := &k.rungs[d]; it.at < r.end {
			k.pushNode(r, int((it.at-r.base)>>r.shift), it)
			return
		}
	}
	k.overflow = append(k.overflow, it)
}

// pushNode links it into bucket b of rung r, taking a node from the free
// list or growing the node array.
//
//repro:hotpath
func (k *Kernel) pushNode(r *rung, b int, it heapItem) {
	n := k.freeNode
	if n != 0 {
		k.freeNode = k.nodes[n].next
	} else {
		if len(k.nodes) == 0 {
			k.nodes = append(k.nodes, calNode{}) // the sentinel
		}
		n = int32(len(k.nodes))
		k.nodes = append(k.nodes, calNode{})
	}
	k.nodes[n] = calNode{at: it.at, seq: it.seq, id: it.id, next: r.head[b]}
	r.head[b] = n
}

// listLen counts the nodes of the list from n, stopping at limit.
//
//repro:hotpath
func (k *Kernel) listLen(n int32, limit int) int {
	c := 0
	for ; n != 0 && c < limit; n = k.nodes[n].next {
		c++
	}
	return c
}

// freeNodeAt returns node n to the free list.
//
//repro:hotpath
func (k *Kernel) freeNodeAt(n int32) {
	k.nodes[n].next = k.freeNode
	k.freeNode = n
}

// ensureMin pours far tiers into the near heap until the heap holds the
// global minimum, and reports whether any event remains. The fast path —
// heap already non-empty — inlines into the run loop.
//
//repro:hotpath
func (k *Kernel) ensureMin() bool {
	if len(k.queue) > 0 {
		return true
	}
	return k.refill()
}

// refill is ensureMin's slow path: pour or split buckets (or re-span over
// the overflow) until the heap is non-empty or every tier is dry.
//
//repro:hotpath
func (k *Kernel) refill() bool {
	for len(k.queue) == 0 {
		if k.pourNext() {
			continue
		}
		if len(k.overflow) == 0 {
			return false
		}
		k.respan()
	}
	return true
}

// pourNext takes the earliest non-empty bucket of the deepest rung that
// still holds items, dropping the drained rungs below it. A bucket of more
// than splitMin items that is wider than 1 ns is spread over a new child
// rung; any other is poured into the (empty) heap. Either way the near/far
// boundary moves to the bucket's left edge (split) or right edge (pour), past
// the spans of the drained rungs. It reports false, changing nothing, when
// no rung holds an item.
//
//repro:hotpath
func (k *Kernel) pourNext() bool {
	d := len(k.rungs) - 1
	r := &k.rungs[d]
	b := r.cur
	for {
		for b < nBuckets && r.head[b] == 0 {
			b++
		}
		if b < nBuckets {
			break
		}
		if d == 0 {
			return false
		}
		d-- // a drained child rung hands control back to its parent
		r = &k.rungs[d]
		b = r.cur
	}
	k.rungs = k.rungs[:d+1]
	n := r.head[b]
	r.head[b] = 0
	r.cur = b + 1
	left := r.base + Time(b)<<r.shift
	if r.shift > 0 && k.listLen(n, splitMin+1) > splitMin {
		shift := max(r.shift, rungShift) - rungShift
		k.rungs = append(k.rungs, newRung(left, left+Time(1)<<r.shift, shift))
		c := &k.rungs[d+1]
		for n != 0 {
			nd := &k.nodes[n]
			next := nd.next
			if nd.id = k.liveHead(nd.id); nd.id >= 0 {
				cb := (nd.at - left) >> shift
				nd.next = c.head[cb]
				c.head[cb] = n
			} else {
				k.freeNodeAt(n)
			}
			n = next
		}
		k.farEdge = left
		return true
	}
	k.farEdge = left + Time(1)<<r.shift
	q := k.queue
	for n != 0 {
		nd := &k.nodes[n]
		next := nd.next
		if id := k.liveHead(nd.id); id >= 0 {
			q = append(q, heapItem{at: nd.at, seq: nd.seq, id: id})
		}
		k.freeNodeAt(n)
		n = next
	}
	heapify(q)
	k.queue = q
	return true
}

// respan re-bases the top rung over the overflow, at the narrowest
// power-of-two bucket width that spreads the live overflow span across its
// buckets, and moves the items in. Cancelled events are released during the
// scan so a dead far-future timer cannot distort the new geometry. Every
// rung is dry when it runs.
//
//repro:hotpath
func (k *Kernel) respan() {
	live := k.overflow[:0]
	minAt, maxAt := Time(math.MaxInt64), Time(0)
	for _, it := range k.overflow {
		if it.id = k.liveHead(it.id); it.id < 0 {
			continue
		}
		minAt = min(minAt, it.at)
		maxAt = max(maxAt, it.at)
		live = append(live, it)
	}
	k.overflow = live[:0]
	if len(live) == 0 {
		return
	}
	var shift uint8
	for (maxAt-minAt)>>shift >= nBuckets {
		shift++
	}
	k.rungs = append(k.rungs[:0], newRung(minAt, 0, shift))
	k.farEdge = minAt
	top := &k.rungs[0]
	for _, it := range live {
		k.pushNode(top, int((it.at-minAt)>>shift), it)
	}
}

// compactRungs releases every cancelled event held in the rungs and the
// overflow, unlinking the nodes of items with no live member left.
//
//repro:hotpath
func (k *Kernel) compactRungs() {
	for d := range k.rungs {
		r := &k.rungs[d]
		for b := r.cur; b < nBuckets; b++ {
			link := &r.head[b]
			for n := *link; n != 0; n = *link {
				nd := &k.nodes[n]
				if nd.id = k.sweep(nd.id); nd.id >= 0 {
					link = &nd.next
					continue
				}
				*link = nd.next
				k.freeNodeAt(n)
			}
		}
	}
	over := k.overflow[:0]
	for _, it := range k.overflow {
		if it.id = k.sweep(it.id); it.id >= 0 {
			over = append(over, it)
		}
	}
	k.overflow = over
}

// resetQueue empties the heap, rung and overflow tiers and restores the top
// rung's initial geometry, keeping their storage. Reset empties the lane.
func (k *Kernel) resetQueue() {
	k.queue = k.queue[:0]
	k.rungs = append(k.rungs[:0], newRung(0, 0, defaultCalShift))
	k.nodes = k.nodes[:min(len(k.nodes), 1)]
	k.freeNode = 0
	k.overflow = k.overflow[:0]
	k.farEdge = 0
	k.batchAt = -1
	k.batchTail = -1
}
