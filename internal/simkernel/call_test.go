package simkernel

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// callBody calls m once with ContProc.Call, advance style, and counts its
// own steps; after m completes it runs then (when set) and finishes.
type callBody struct {
	m      Cont
	then   func(c *ContProc)
	pc     int
	steps  int
	inline bool // the Call completed inline
}

func (b *callBody) Step(c *ContProc) bool {
	b.steps++
	if b.pc == 0 {
		b.pc = 1
		if !c.Call(b.m) {
			return false
		}
		b.inline = true
	}
	if b.then != nil {
		b.then(c)
	}
	return true
}

// TestCallInlineCompletion pins Call's fast path: a machine that completes
// on its first step returns true at once, the body continues in the same
// step, and the process is left holding no inner machine.
func TestCallInlineCompletion(t *testing.T) {
	k := New()
	var innerAfter Cont = &sleeperCont{}
	b := &callBody{m: &sleeperCont{}, then: func(c *ContProc) { innerAfter = c.inner }}
	k.SpawnCont(b)
	k.Run()
	if !b.inline || b.steps != 1 {
		t.Fatalf("inline Call: completed inline %v after %d body steps, want true after 1", b.inline, b.steps)
	}
	if innerAfter != nil {
		t.Fatalf("inner machine %T left on the process after an inline completion", innerAfter)
	}
}

// TestCallParkedStepsInnerOnly pins where a parked Call's wakeups go: the
// machine's three sleeps wake the machine alone, and its completion steps
// the body in that same resume — before a process the machine spawns as it
// completes, which a separately scheduled body step would follow.
func TestCallParkedStepsInnerOnly(t *testing.T) {
	k := New()
	var log []string
	inner := &sleeperCont{left: 3, after: func() {
		log = append(log, fmt.Sprintf("inner done at %d", k.Now()))
		k.SpawnCont(do(func() { log = append(log, fmt.Sprintf("other at %d", k.Now())) }))
	}}
	b := &callBody{m: inner, then: func(c *ContProc) {
		if c.inner != nil {
			t.Errorf("body stepped while parked inside %T", c.inner)
		}
		log = append(log, fmt.Sprintf("body at %d", c.Now()))
	}}
	k.SpawnCont(b)
	k.Run()
	if b.inline || b.steps != 2 {
		t.Fatalf("parked Call: completed inline %v after %d body steps, want false after 2 (the call and the return)", b.inline, b.steps)
	}
	if want := []string{"inner done at 3", "body at 3", "other at 3"}; !slices.Equal(log, want) {
		t.Fatalf("order at the machine's completion = %q, want %q", log, want)
	}
}

// TestCallNestedPanics pins the one-outstanding-call rule: a machine that
// itself calls Call, on its first step or on a wakeup, panics naming the
// rule.
func TestCallNestedPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner Cont
	}{
		{"first step", contFunc(func(c *ContProc) bool { return c.Call(&sleeperCont{}) })},
		{"wakeup", contFunc(func(c *ContProc) bool {
			if c.Now() == 0 {
				c.Sleep(1)
				return false
			}
			return c.Call(&sleeperCont{})
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			k.SpawnCont(&callBody{m: tc.inner})
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "inside another Call") {
					t.Fatalf("nested Call panic = %q, want one naming the rule", msg)
				}
			}()
			k.Run()
		})
	}
}

// TestCallDroppedByReset pins recycling: a process dropped by Reset while
// parked inside a Call comes back from the freelist holding no inner
// machine, so the next body on the shell is stepped, not the old machine.
func TestCallDroppedByReset(t *testing.T) {
	k := New()
	old := &sleeperCont{left: 5}
	k.SpawnCont(&callBody{m: old})
	k.RunUntil(2)
	left := old.left
	k.Reset()
	if len(k.idle) != 1 || k.idle[0].inner != nil {
		t.Fatalf("shell recycled with inner machine %T", k.idle[0].inner)
	}
	fresh := &callBody{m: &sleeperCont{left: 1}}
	p := k.SpawnCont(fresh)
	k.Run()
	if !p.Done() || fresh.steps != 2 {
		t.Fatalf("fresh body on the recycled shell: done %v after %d steps, want done after 2", p.Done(), fresh.steps)
	}
	if old.left != left {
		t.Fatalf("the dropped machine was stepped after Reset: %d sleeps left, want %d", old.left, left)
	}
}

// TestProcSize pins a process shell at 48 bytes on 64-bit platforms, the
// size class it had before it held an inner machine: the slot Call parks
// in fits because the shell keeps no id and a 32-bit job tag.
func TestProcSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Proc{}); got != 48 {
		t.Fatalf("Proc is %d bytes, want 48", got)
	}
}

// TestEventRecSize pins an event's pooled payload at 32 bytes on 64-bit
// platforms: the daemon flag fits in the padding behind the two flags
// before it.
func TestEventRecSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(eventRec{}); got != 32 {
		t.Fatalf("eventRec is %d bytes, want 32", got)
	}
}

// parkOn is a body that parks on rec (which records its process and is
// scheduled at the given time) and, once resumed, logs its return and
// completes.
type parkOn struct {
	rec    *resumeRecord
	at     Time
	parked bool
	log    *[]string
}

func (b *parkOn) Step(c *ContProc) bool {
	if !b.parked {
		b.parked = true
		b.rec.p = c.Proc()
		c.k.AtEvent(b.at, b.rec)
		c.Pause()
		return false
	}
	*b.log = append(*b.log, fmt.Sprintf("body resumed at %d", c.Now()))
	return true
}

// resumeRecord resumes its process when it fires, logging the kernel's
// pending events and sequence number on either side of the Resume.
type resumeRecord struct {
	p   *Proc
	log *[]string
}

func (r *resumeRecord) Fire() {
	k := r.p.k
	*r.log = append(*r.log, fmt.Sprintf("record fires at %d: pending %d, seq %d", k.now, k.Pending(), k.seq))
	r.p.Resume()
	*r.log = append(*r.log, fmt.Sprintf("record returns: pending %d, seq %d, done %v", k.Pending(), k.seq, r.p.Done()))
}

// TestResumeInSameSlot pins Proc.Resume: a record firing at time 5 steps
// its parked process inside its own event, before the events queued
// behind it at that time, and adds no event.
func TestResumeInSameSlot(t *testing.T) {
	k := New()
	var log []string
	rec := &resumeRecord{log: &log}
	k.SpawnCont(&parkOn{rec: rec, at: 5, log: &log})
	k.RunUntil(0)
	k.At(5, func() { log = append(log, "later event at 5") })
	k.Run() // returns after the record's event, in which the body finishes
	k.Run()
	want := []string{
		"record fires at 5: pending 1, seq 3",
		"body resumed at 5",
		"record returns: pending 1, seq 3, done true",
		"later event at 5",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
}

// TestResumePanicsUnlessParked pins Resume's guard: a process that is
// ready (spawned, not yet stepped), running (resuming itself) or done is
// not parked, and resuming it panics naming the rule.
func TestResumePanicsUnlessParked(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(k *Kernel)
	}{
		{"ready", func(k *Kernel) { k.SpawnCont(&sleeperCont{}).Resume() }},
		{"running", func(k *Kernel) {
			k.SpawnCont(contFunc(func(c *ContProc) bool { c.Proc().Resume(); return true }))
			k.Run()
		}},
		{"done", func(k *Kernel) {
			p := k.SpawnCont(&sleeperCont{})
			k.Run()
			p.Resume()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "resumed while not parked") {
					t.Fatalf("Resume panic = %q, want one naming the rule", msg)
				}
			}()
			tc.run(New())
		})
	}
}

// TestResumeRecordDroppedByReset pins Reset against a process parked on a
// record: Reset drops the process and discards the record's event, so the
// record never fires and the recycled shell runs the next body alone.
func TestResumeRecordDroppedByReset(t *testing.T) {
	k := New()
	var log []string
	rec := &resumeRecord{log: &log}
	p := k.SpawnCont(&parkOn{rec: rec, at: 10, log: &log})
	k.RunUntil(2)
	if p.Done() || k.Live() != 1 {
		t.Fatalf("before Reset: done %v, live %d; want parked", p.Done(), k.Live())
	}
	k.Reset()
	if !p.Done() || k.Pending() != 0 {
		t.Fatalf("after Reset: done %v, %d events pending; want dropped, none", p.Done(), k.Pending())
	}
	fresh := &callBody{m: &sleeperCont{left: 1}}
	q := k.SpawnCont(fresh)
	k.Run()
	if q != p || !q.Done() || fresh.steps != 2 {
		t.Fatalf("fresh body on the recycled shell: same shell %v, done %v after %d steps", q == p, q.Done(), fresh.steps)
	}
	if len(log) != 0 {
		t.Fatalf("the dropped record fired or its process resumed: %q", log)
	}
}

// leaf is FuzzContCall's leaf machine: it logs each step and sleeps once
// per entry of sleeps before completing. A hopping leaf parks its process
// on a record instead, which takes every sleep in its place and resumes
// the process for the leaf's last step.
type leaf struct {
	name   string
	sleeps []time.Duration
	hop    bool
	rec    hopRecord
	i      int
	log    *[]string
}

func (l *leaf) Step(c *ContProc) bool {
	*l.log = append(*l.log, fmt.Sprintf("%s step %d at %d", l.name, l.i, c.Now()))
	if l.i < len(l.sleeps) {
		if l.hop {
			l.rec = hopRecord{l: l, p: c.Proc()}
			l.rec.Fire()
			c.Pause()
			return false
		}
		c.Sleep(l.sleeps[l.i])
		l.i++
		return false
	}
	return true
}

// hopRecord holds a hopping leaf's parked process. Each firing stands for
// one of the leaf's wakeups: it logs the step the leaf would have logged
// and schedules itself after the next sleep, as the leaf would have slept;
// the firing after the last sleep resumes the process, which steps the
// leaf once more, in that same event. The first call, from the leaf's own
// step, only schedules.
type hopRecord struct {
	l *leaf
	p *Proc
}

func (h *hopRecord) Fire() {
	l, k := h.l, h.p.k
	if l.i == len(l.sleeps) {
		h.p.Resume()
		return
	}
	if l.i > 0 {
		*l.log = append(*l.log, fmt.Sprintf("%s step %d at %d", l.name, l.i, k.now))
	}
	k.AtEvent(k.now+Time(l.sleeps[l.i]), h)
	l.i++
}

// leafBody runs its leaves in order, by ContProc.Call or, for the
// reference, by stepping each one itself on every wakeup. After each leaf
// it logs and optionally sleeps on its own.
type leafBody struct {
	name   string
	call   bool
	leaves []*leaf
	naps   []time.Duration // after leaf i: < 0 none, else a body-level sleep
	i, pc  int
	log    *[]string
}

func (b *leafBody) Step(c *ContProc) bool {
	for {
		switch b.pc {
		case 0:
			if b.i == len(b.leaves) {
				*b.log = append(*b.log, fmt.Sprintf("%s done at %d", b.name, c.Now()))
				return true
			}
			*b.log = append(*b.log, fmt.Sprintf("%s begins leaf %d at %d", b.name, b.i, c.Now()))
			b.pc = 1
			if b.call && !c.Call(b.leaves[b.i]) {
				return false
			}
		case 1:
			if !b.call && !b.leaves[b.i].Step(c) {
				return false
			}
			*b.log = append(*b.log, fmt.Sprintf("%s ends leaf %d at %d", b.name, b.i, c.Now()))
			nap := b.naps[b.i]
			b.i++
			b.pc = 0
			if nap >= 0 {
				c.Sleep(nap)
				return false
			}
		}
	}
}

// FuzzContCall checks ContProc.Call against a body that steps its machines
// itself: up to four processes each run up to three leaf machines that
// sleep for 0, 1, 2 or 5 ns a few times (ties on purpose), with optional
// body-level sleeps between them. A leaf whose sleep-count byte has bit 2
// set hops under Call: its process parks on a record that takes the sleeps
// and ends with Proc.Resume. A final byte may add a daemon that logs a
// tick every 1, 2 or 5 ns forever. The two runs must log the same machine
// and body steps at the same virtual times in the same order, and schedule
// the same number of events; and Run must stop where the reference's log
// says the last worker finished, with no tick logged after it.
func FuzzContCall(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 2, 1, 1, 3, 2, 0, 1, 1, 0, 2, 3, 3})
	f.Add([]byte{1, 3, 0, 1, 3, 1, 2, 3, 2, 2, 0, 0, 1, 2})
	f.Add([]byte{2, 0, 3, 3, 3, 3, 0, 0, 0, 0, 1, 1, 2})
	// Hopping leaves beside sleeping ones, tied at the same instants.
	f.Add([]byte{3, 2, 7, 1, 1, 0, 1, 6, 2, 2, 2, 2, 5, 1, 0, 3, 1, 7, 0, 1, 3, 2, 2})
	// A daemon ticking every 2 ns beside two workers, ticks tied with steps.
	f.Add([]byte{1, 2, 1, 2, 1, 2, 5, 1, 3, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		durs := [4]time.Duration{0, 1, 2, 5}
		type leafSpec struct {
			sleeps []time.Duration
			hop    bool
			nap    time.Duration
		}
		var specs [][]leafSpec
		for procs := 1 + next()%4; len(specs) < procs; {
			var ls []leafSpec
			for leaves := next() % 4; len(ls) < leaves; {
				var s leafSpec
				n := next()
				s.hop = n&4 != 0
				for n %= 4; n > 0; n-- {
					s.sleeps = append(s.sleeps, durs[next()%4])
				}
				s.nap = -1
				if v := next() % 3; v > 0 {
					s.nap = durs[v]
				}
				ls = append(ls, s)
			}
			specs = append(specs, ls)
		}
		tick := durs[next()%4] // 0: no daemon
		runAll := func(call bool) ([]string, uint64, Time) {
			var log []string
			k := New()
			if tick > 0 {
				k.SpawnDaemon(contFunc(func(c *ContProc) bool {
					log = append(log, fmt.Sprintf("daemon tick at %d", c.Now()))
					c.Sleep(tick)
					return false
				}))
			}
			for p, ls := range specs {
				b := &leafBody{name: fmt.Sprintf("p%d", p), call: call, log: &log}
				for j, s := range ls {
					b.leaves = append(b.leaves, &leaf{name: fmt.Sprintf("p%d.%d", p, j), sleeps: s.sleeps, hop: call && s.hop, log: &log})
					b.naps = append(b.naps, s.nap)
				}
				k.SpawnCont(b)
			}
			end := k.Run()
			for _, p := range k.procs {
				if !p.daemon && (!p.Done() || p.inner != nil) {
					t.Fatalf("process %d: done %v, inner %T after the run", p.ID(), p.Done(), p.inner)
				}
			}
			if err := k.Stuck(); err != nil {
				t.Fatal(err)
			}
			return log, k.seq, end
		}
		got, gotSeq, gotEnd := runAll(true)
		want, wantSeq, wantEnd := runAll(false)
		if !slices.Equal(got, want) {
			t.Fatalf("Call log differs from the direct-Step reference:\ngot  %q\nwant %q", got, want)
		}
		if gotSeq != wantSeq {
			t.Fatalf("Call scheduled %d events, the reference %d", gotSeq, wantSeq)
		}
		// The reference's last done line is where every run stops.
		var last Time = -1
		for _, line := range want {
			var name string
			var at Time
			if n, _ := fmt.Sscanf(line, "%s done at %d", &name, &at); n == 2 && at > last {
				last = at
			}
		}
		if gotEnd != last || wantEnd != last {
			t.Fatalf("Run stopped at %d (Call) and %d (reference), want %d, where the last worker finished", gotEnd, wantEnd, last)
		}
		if tail := want[len(want)-1]; !strings.Contains(tail, " done at ") {
			t.Fatalf("the run went on past its last worker: its log ends with %q", tail)
		}
	})
}
