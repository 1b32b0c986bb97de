package simkernel

// The calendar event queue. The timer-churn regime this kernel lives in —
// OST boundary timers cancelled and rescheduled on every replanning pass,
// phase clocks seconds ahead of a microsecond-scale present — wants two
// different structures at once: exact (time, seq) order for the imminent
// events the loop is about to fire, and O(1) insertion for the far-future
// mass that is likely to be cancelled before it ever matters. The queue is
// therefore a two-tier calendar fronted by the 4-ary heap:
//
//   - Near tier: the 4-ary min-heap (kernel.go's heapPush/heapPopMin),
//     holding every event earlier than farStart() except those scheduled
//     at the current time, which wait on the now lane (kernel.go). The loop
//     pops from these two only, so pop order is exact.
//   - Calendar tier: nBuckets unsorted buckets of span calWidth starting at
//     calBase. When the heap drains, the earliest non-empty bucket is
//     poured into it (heapified in one Floyd pass); cancelled entries are
//     released at pour time without ever being heap-ordered — the churn
//     win: a far-future timer that is cancelled costs O(1) total.
//   - Overflow tier: events beyond the calendar horizon, unsorted. When the
//     buckets run dry the calendar re-spans over the overflow, picking a
//     bucket width that stretches the live span across all buckets.
//
// Correctness does not depend on the geometry: every item in the heap is
// earlier than farStart(), every bucket item earlier than the next bucket's
// edge, and pours happen only when the heap is empty, so the heap minimum is
// always the global minimum and the pop sequence is the same total (time,
// seq) order the plain heap produced (see calendar_test.go's property test).

const (
	// nBuckets is the calendar size; a power of two keeps re-spans cheap.
	nBuckets = 64
	// defaultCalWidth is the initial bucket span (1.05 virtual ms): wide
	// enough that an IO phase's device-rate events stay within the calendar,
	// narrow enough that each pour hands the heap a small batch.
	defaultCalWidth = Time(1 << 20)
)

// eventCount reports the queued items across all tiers and the now lane
// (including lazily-cancelled ones).
//
//repro:hotpath
func (k *Kernel) eventCount() int {
	return len(k.queue) + k.lane.Len() + k.nFar + len(k.overflow)
}

// enqueue routes an item to its tier. k.farEdge caches the left edge of the
// earliest still-active bucket — the boundary between the near heap and the
// calendar — maintained by pourNext/respan/Reset.
//
//repro:hotpath
func (k *Kernel) enqueue(it heapItem) {
	if it.at < k.farEdge {
		k.queue = heapPush(k.queue, it)
		return
	}
	k.enqueueFar(it)
}

// enqueueFar routes an item at or beyond the near/far boundary into its
// bucket, or into the overflow beyond the calendar horizon.
//
//repro:hotpath
func (k *Kernel) enqueueFar(it heapItem) {
	idx := int((it.at - k.calBase) / k.calWidth)
	if idx >= nBuckets {
		k.overflow = append(k.overflow, it)
		return
	}
	if k.buckets == nil {
		k.buckets = make([][]heapItem, nBuckets)
	}
	k.buckets[idx] = append(k.buckets[idx], it)
	k.nFar++
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

// refill is ensureMin's slow path: pour buckets (or re-span over the
// overflow) until the heap is non-empty or every tier is dry. Cancelled
// items encountered while pouring are released without entering the heap.
//
//repro:hotpath
func (k *Kernel) refill() bool {
	for len(k.queue) == 0 {
		if k.nFar > 0 {
			k.pourNext()
			continue
		}
		if len(k.overflow) > 0 {
			k.respan()
			continue
		}
		return false
	}
	return true
}

// pourNext moves the earliest non-empty bucket into the heap, advancing the
// near/far boundary past it.
//
//repro:hotpath
func (k *Kernel) pourNext() {
	for k.calCur < nBuckets && len(k.buckets[k.calCur]) == 0 {
		k.calCur++
	}
	b := k.buckets[k.calCur]
	k.nFar -= len(b)
	q := k.queue
	for _, it := range b {
		if k.pool[it.id].cancelled {
			k.nCancelled--
			k.release(it.id)
			continue
		}
		q = append(q, it)
	}
	heapify(q)
	k.queue = q
	k.buckets[k.calCur] = b[:0]
	k.calCur++
	k.farEdge = k.calBase + Time(k.calCur)*k.calWidth
}

// respan restretches the calendar over the overflow: the live overflow span
// is divided evenly across all buckets and the items redistributed.
// Cancelled items are released during the scan so a dead far-future timer
// cannot distort the new geometry.
//
//repro:hotpath
func (k *Kernel) respan() {
	live := k.overflow[:0]
	minAt, maxAt := Time(1<<62), Time(0)
	for _, it := range k.overflow {
		if k.pool[it.id].cancelled {
			k.nCancelled--
			k.release(it.id)
			continue
		}
		if it.at < minAt {
			minAt = it.at
		}
		if it.at > maxAt {
			maxAt = it.at
		}
		live = append(live, it)
	}
	k.overflow = live
	if len(live) == 0 {
		return
	}
	k.calBase = minAt
	k.calWidth = (maxAt-minAt)/nBuckets + 1
	k.calCur = 0
	k.farEdge = minAt
	if k.buckets == nil {
		k.buckets = make([][]heapItem, nBuckets)
	}
	for _, it := range live {
		idx := int((it.at - k.calBase) / k.calWidth)
		k.buckets[idx] = append(k.buckets[idx], it)
	}
	k.nFar += len(live)
	k.overflow = live[:0]
}
