package simkernel

import "testing"

// orderSpec is one event of a FuzzKernelOrder script: when it is scheduled
// relative to the clock, and what it does when it fires.
type orderSpec struct {
	delay  Time // added to the clock at scheduling time; negative tests clamping
	event  bool // scheduled with AtEvent rather than At
	child  int  // label scheduled from inside this event's firing, or -1
	cancel int  // label this event cancels when it fires, or -1
	stop   bool // this event calls Stop when it fires
}

// orderOp is one top-level script step.
type orderOp struct {
	kind  byte // 'S' schedule label, 'C' cancel label, 'R' RunUntil(now+span), 'A' Run
	label int
	span  Time
}

// orderMaxBytes bounds the decoded script so every input runs quickly.
const orderMaxBytes = 512

// orderDelay maps a byte to a delay that lands in each queue tier: zero
// (same-time ties), a few nanoseconds (the near heap), calendar buckets, and
// the overflow beyond the calendar horizon.
func orderDelay(b byte) Time {
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return Time(b >> 2)
	case 2:
		return Time(b>>2) << 18
	default:
		return Time(b>>2) << 26
	}
}

// decodeOrderScript turns fuzz bytes into an event table and a step list.
// Opcodes (low 3 bits of a step's first byte):
//
//	0, 1  schedule a root event with At / AtEvent: delay byte, chain byte
//	      (chain&3 zero-delay children, scheduled one from each firing)
//	2     cancel an existing label from outside the loop
//	3     RunUntil(now + delay byte)
//	4     Run
//	5     schedule a root event that calls Stop when it fires
//	6     schedule a root event that cancels an existing label when it fires
//	7     schedule a root event in the past (clamped to the present)
func decodeOrderScript(data []byte) ([]orderSpec, []orderOp) {
	if len(data) > orderMaxBytes {
		data = data[:orderMaxBytes]
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var specs []orderSpec
	var ops []orderOp
	root := func(sp orderSpec, chain int) {
		sp.child, sp.cancel = -1, -1
		label := len(specs)
		specs = append(specs, sp)
		ops = append(ops, orderOp{kind: 'S', label: label})
		for parent := label; chain > 0; chain-- {
			specs[parent].child = len(specs)
			parent = len(specs)
			specs = append(specs, orderSpec{child: -1, cancel: -1})
		}
	}
	existing := func(b byte) int {
		if len(specs) == 0 {
			return -1
		}
		return int(b) % len(specs)
	}
	for len(data) > 0 {
		op := next()
		switch op & 7 {
		case 0, 1:
			d, c := next(), next()
			root(orderSpec{delay: orderDelay(d), event: op&1 == 1}, int(c&3))
		case 2:
			if l := existing(next()); l >= 0 {
				ops = append(ops, orderOp{kind: 'C', label: l})
			}
		case 3:
			ops = append(ops, orderOp{kind: 'R', span: orderDelay(next())})
		case 4:
			ops = append(ops, orderOp{kind: 'A'})
		case 5:
			root(orderSpec{delay: orderDelay(next()), stop: true}, 0)
		case 6:
			d, l := next(), existing(next())
			root(orderSpec{delay: orderDelay(d)}, 0)
			specs[len(specs)-1].cancel = l
		case 7:
			root(orderSpec{delay: -Time(next())}, 0)
		}
	}
	return specs, ops
}

// orderFiring is one fired event: its label and the clock when it fired.
type orderFiring struct {
	label int
	at    Time
}

// orderKernel runs a script on a real kernel.
type orderKernel struct {
	k      *Kernel
	specs  []orderSpec
	timers []Timer
	fired  []orderFiring
}

// orderFirer is the AtEvent payload for one label.
type orderFirer struct {
	r     *orderKernel
	label int
}

func (f *orderFirer) Fire() { f.r.fire(f.label) }

func (r *orderKernel) schedule(label int) {
	at := r.k.Now() + r.specs[label].delay
	if r.specs[label].event {
		r.timers[label] = r.k.AtEvent(at, &orderFirer{r: r, label: label})
	} else {
		r.timers[label] = r.k.At(at, func() { r.fire(label) })
	}
}

func (r *orderKernel) fire(label int) {
	r.fired = append(r.fired, orderFiring{label, r.k.Now()})
	sp := r.specs[label]
	if sp.cancel >= 0 {
		r.timers[sp.cancel].Cancel()
	}
	if sp.child >= 0 {
		r.schedule(sp.child)
	}
	if sp.stop {
		r.k.Stop()
	}
}

// orderRef is the reference: pending events in a plain list, and the next
// event to fire is always the least (time, scheduling sequence) pair.
type orderRef struct {
	specs   []orderSpec
	now     Time
	seq     uint64
	pending []orderRefEv
	fired   []orderFiring
	stopped bool
}

type orderRefEv struct {
	at    Time
	seq   uint64
	label int
}

func (r *orderRef) schedule(label int) {
	at := r.now + r.specs[label].delay
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.pending = append(r.pending, orderRefEv{at, r.seq, label})
}

func (r *orderRef) cancel(label int) {
	for i, e := range r.pending {
		if e.label == label {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *orderRef) isPending(label int) bool {
	for _, e := range r.pending {
		if e.label == label {
			return true
		}
	}
	return false
}

func (r *orderRef) runUntil(deadline Time) Time {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		lo := 0
		for i, e := range r.pending {
			m := r.pending[lo]
			if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
				lo = i
			}
		}
		e := r.pending[lo]
		if e.at > deadline {
			break
		}
		r.pending = append(r.pending[:lo], r.pending[lo+1:]...)
		r.now = e.at
		r.fired = append(r.fired, orderFiring{e.label, e.at})
		sp := r.specs[e.label]
		if sp.cancel >= 0 {
			r.cancel(sp.cancel)
		}
		if sp.child >= 0 {
			r.schedule(sp.child)
		}
		r.stopped = sp.stop
	}
	return r.now
}

// laneCompactionScript schedules 2*compactMin roots at the clock (the now
// lane) and one a nanosecond later (the heap), then cancels every odd label
// until the cancels outnumber half the queue, and runs.
func laneCompactionScript() []byte {
	var data []byte
	for i := 0; i < 2*compactMin; i++ {
		data = append(data, 1, 0, 0)
	}
	data = append(data, 0, 5, 0)
	for l := 1; l <= 2*compactMin+1; l += 2 {
		data = append(data, 2, byte(l))
	}
	return append(data, 4)
}

// Script bytes for roots 10 ns and 1 ns ahead of the clock: orderDelay maps
// b&3 == 1 to b>>2 nanoseconds.
const (
	orderAt10ns = 10<<2 | 1
	orderAt1ns  = 1<<2 | 1
)

// batchCancelScript schedules one batch of eight roots 10 ns ahead, cancels
// its head, a middle member and its tail from outside the loop, and
// schedules three roots 1 ns ahead that cancel the new head, another middle
// member and the tail's predecessor from inside the loop, before the batch
// is reached. A last root at 10 ns, after the batch has closed, opens a
// second item at the same time.
func batchCancelScript() []byte {
	var data []byte
	for i := 0; i < 8; i++ {
		data = append(data, 0, orderAt10ns, 0)
	}
	data = append(data, 2, 0, 2, 4, 2, 7)
	data = append(data, 6, orderAt1ns, 1, 6, orderAt1ns, 3, 6, orderAt1ns, 6)
	data = append(data, 1, orderAt10ns, 1)
	return append(data, 4)
}

// batchCompactionScript opens a batch of 2*compactMin roots 10 ns ahead and
// cancels its tail, then every other member and the head, so that the last
// cancel compacts the queue while the batch is still open. Two more roots
// at the batch's time follow: the compaction released the tail, so they
// must not link behind its recycled slot.
func batchCompactionScript() []byte {
	var data []byte
	for i := 0; i < 2*compactMin; i++ {
		data = append(data, 0, orderAt10ns, 0)
	}
	data = append(data, 2, 2*compactMin-1)
	for l := 1; l < 2*compactMin-1; l += 2 {
		data = append(data, 2, byte(l))
	}
	data = append(data, 2, 0)
	data = append(data, 0, orderAt10ns, 0, 1, orderAt10ns, 1)
	return append(data, 4)
}

// batchStopScript puts a Stop in the middle of a batch: three roots 10 ns
// ahead, a fourth at the same time that stops the loop, three more behind
// it, and a root a nanosecond later.
func batchStopScript() []byte {
	var data []byte
	for i := 0; i < 3; i++ {
		data = append(data, 0, orderAt10ns, 1)
	}
	data = append(data, 5, orderAt10ns)
	for i := 0; i < 3; i++ {
		data = append(data, 1, orderAt10ns, 0)
	}
	data = append(data, 0, 11<<2|1, 0)
	return append(data, 4)
}

// rungSplitScript puts 80 roots in one top-rung bucket, alternating between
// 4 ns and 5 ns so that no two neighbours share a time and batch: the bucket
// splits rung by rung down to 1 ns buckets of 40 roots each. A few are
// cancelled, and the run is cut between the two times.
func rungSplitScript() []byte {
	var data []byte
	for i := 0; i < 40; i++ {
		data = append(data, 0, 4<<2|1, 0, 1, 5<<2|1, 0)
	}
	data = append(data, 2, 3, 2, 40, 2, 79)
	data = append(data, 3, 4<<2|1)
	return append(data, 4)
}

// FuzzKernelOrder is the kernel's ordering oracle. It decodes a script of
// At/AtEvent/Timer.Cancel/Stop/RunUntil steps, runs it on a kernel, and
// checks every firing (label and clock) against orderRef. Events schedule
// zero-delay chains and cancel other events from inside their own firing,
// and a Stop can leave same-time events pending for a later RunUntil.
func FuzzKernelOrder(f *testing.F) {
	// Zero-delay chains from inside firing events, tied with other
	// same-time roots.
	f.Add([]byte{0, 0, 3, 1, 0, 3, 0, 0, 2, 0, 0, 0, 1, 0, 1, 4})
	// A Stop that leaves same-time events pending, then resumes.
	f.Add([]byte{0, 1, 0, 5, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 3, 1, 3, 0, 4})
	// Same-time events cancelled from inside a firing and from outside.
	f.Add([]byte{0, 0, 0, 6, 0, 2, 1, 0, 0, 0, 0, 2, 6, 0, 0, 2, 3, 3, 4})
	// Every tier: near, calendar buckets and overflow, cancelled and run
	// in slices, plus a root scheduled in the past.
	f.Add([]byte{0, 2, 0, 1, 3, 1, 0, 6, 0, 1, 7, 1, 2, 1, 3, 10, 7, 9, 0, 0, 2, 3, 255, 4})
	// More same-time roots than one 4-ary heap node holds, with chains.
	f.Add([]byte{0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 4})
	// The now lane. A Stop at 1 ns that leaves a lane child and a heap
	// item at the same time behind: the heap item must fire first.
	f.Add([]byte{0, 5, 3, 5, 5, 1, 5, 0, 4, 4})
	// Zero-delay roots and chains scheduled at the clock before the first
	// Run.
	f.Add([]byte{1, 0, 2, 0, 0, 1, 4})
	// A lane item cancelled from inside a lane firing, and one cancelled
	// from outside the loop.
	f.Add([]byte{0, 0, 1, 6, 0, 1, 4, 0, 0, 0, 2, 3, 4})
	// A compaction while lane items are queued: enough same-time roots and
	// a heap item for compactMin, then cancels of every other label.
	f.Add(laneCompactionScript())
	// A batch whose head, a middle member and tail are cancelled from
	// outside the loop and from inside it.
	f.Add(batchCancelScript())
	// A compaction while a batch is open releases its tail.
	f.Add(batchCompactionScript())
	// A Stop in the middle of a batch.
	f.Add(batchStopScript())
	// More than splitMin roots in one bucket: splits down to 1 ns width.
	f.Add(rungSplitScript())
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, ops := decodeOrderScript(data)
		kern := &orderKernel{k: New(), specs: specs, timers: make([]Timer, len(specs))}
		// A script fires at most one event per label; a broken queue that
		// fires an event twice or loops panics here instead of hanging.
		kern.k.EventLimit = uint64(len(specs)) + 1
		ref := &orderRef{specs: specs}
		check := func(step int) {
			t.Helper()
			if len(kern.fired) != len(ref.fired) {
				t.Fatalf("step %d: kernel fired %d events, reference %d\nkernel %v\nref    %v",
					step, len(kern.fired), len(ref.fired), kern.fired, ref.fired)
			}
			for i := range ref.fired {
				if kern.fired[i] != ref.fired[i] {
					t.Fatalf("step %d: firing %d is %v, reference %v", step, i, kern.fired[i], ref.fired[i])
				}
			}
			for l := range specs {
				if kern.timers[l].Active() != ref.isPending(l) {
					t.Fatalf("step %d: label %d Active=%v, reference pending=%v",
						step, l, kern.timers[l].Active(), ref.isPending(l))
				}
			}
		}
		const forever = Time(1<<62 - 1)
		for step, op := range ops {
			switch op.kind {
			case 'S':
				kern.schedule(op.label)
				ref.schedule(op.label)
			case 'C':
				kern.timers[op.label].Cancel()
				ref.cancel(op.label)
			case 'R', 'A':
				deadline := forever
				if op.kind == 'R' {
					deadline = ref.now + op.span
				}
				got, want := kern.k.RunUntil(deadline), ref.runUntil(deadline)
				if got != want {
					t.Fatalf("step %d: RunUntil returned %v, reference %v", step, got, want)
				}
			}
			check(step)
		}
		for len(ref.pending) > 0 { // a Stop may end each drain early
			kern.k.Run()
			ref.runUntil(forever)
			check(len(ops))
		}
		kern.k.Run() // nothing live is left: this only sweeps cancelled events
		check(len(ops))
		if n := kern.k.Pending(); n != 0 {
			t.Fatalf("kernel holds %d events after draining", n)
		}
		if n := kern.k.nCancelled; n != 0 {
			t.Fatalf("kernel counts %d cancelled events after draining", n)
		}
	})
}
