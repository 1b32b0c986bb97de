package mpisim

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simkernel"
)

func run(t *testing.T, size int, body func(r *Rank) script) *World {
	t.Helper()
	k := simkernel.New()
	w := NewWorld(k, size, Options{})
	wg := launch(w, body)
	k.Run()
	if wg.Count() != 0 {
		t.Fatalf("%d ranks did not finish (deadlock?)", wg.Count())
	}
	k.Shutdown()
	return w
}

func TestPingPong(t *testing.T) {
	var got string
	run(t, 2, func(r *Rank) script {
		var m Message
		switch r.Rank() {
		case 0:
			return script{
				do(func() { r.Send(1, 7, "ping") }),
				recv(r, 1, 8, &m),
				do(func() { got = m.Data.(string) }),
			}
		default:
			return script{
				recv(r, 0, 7, &m),
				do(func() {
					if m.Data.(string) != "ping" {
						t.Error("bad ping payload")
					}
					r.Send(0, 8, "pong")
				}),
			}
		}
	})
	if got != "pong" {
		t.Fatalf("got %q", got)
	}
}

func TestPerSourceTagOrdering(t *testing.T) {
	var got []int
	run(t, 2, func(r *Rank) script {
		if r.Rank() == 0 {
			return script{do(func() {
				for i := 0; i < 10; i++ {
					r.Send(1, 3, i)
				}
			})}
		}
		var s script
		for i := 0; i < 10; i++ {
			var m Message
			s = append(s, recv(r, 0, 3, &m), do(func() { got = append(got, m.Data.(int)) }))
		}
		return s
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestWildcardSourceAndTag(t *testing.T) {
	var froms []int
	run(t, 4, func(r *Rank) script {
		if r.Rank() == 0 {
			var s script
			for i := 0; i < 3; i++ {
				var m Message
				s = append(s, recv(r, AnySource, AnyTag, &m), do(func() { froms = append(froms, m.From) }))
			}
			return s
		}
		return script{do(func() { r.Send(0, 100+r.Rank(), "hello") })}
	})
	sort.Ints(froms)
	if !reflect.DeepEqual(froms, []int{1, 2, 3}) {
		t.Fatalf("froms = %v", froms)
	}
}

func TestSelectiveRecvSkipsNonMatching(t *testing.T) {
	var tag5, tag6 int
	run(t, 2, func(r *Rank) script {
		if r.Rank() == 0 {
			return script{do(func() {
				r.Send(1, 5, 50)
				r.Send(1, 6, 60)
			})}
		}
		// Receive tag 6 first even though tag 5 arrived first.
		var m6, m5 Message
		return script{
			recv(r, 0, 6, &m6),
			recv(r, 0, 5, &m5),
			do(func() { tag6, tag5 = m6.Data.(int), m5.Data.(int) }),
		}
	})
	if tag5 != 50 || tag6 != 60 {
		t.Fatalf("tag5=%d tag6=%d", tag5, tag6)
	}
}

// TestMatchRemovesFromMiddle parks five receivers on rank 0 and queues five
// messages on rank 1, then checks that a message goes to the oldest matching
// waiter and TryRecv takes the oldest matching message, even when that means
// removing from the middle of either queue, and that what remains keeps its
// order.
func TestMatchRemovesFromMiddle(t *testing.T) {
	k := simkernel.New()
	w := NewWorld(k, 3, Options{})
	r0, r1, r2 := w.ranks[0], w.ranks[1], w.ranks[2]
	spawn := func(s script) { k.SpawnCont(stepFunc(func(c *simkernel.ContProc) bool { return s.StepRank(nil, c) })) }

	// Waiters A..E park in this order.
	pats := [][2]int{{1, 7}, {AnySource, 5}, {2, AnyTag}, {AnySource, 5}, {1, 5}}
	got := make([]int, len(pats))
	for i, p := range pats {
		var m Message
		spawn(script{recv(r0, p[0], p[1], &m), do(func() { got[i] = m.Data.(int) })})
	}
	// Each send lands alone: 1 skips A and B to reach C, 2 skips A to reach
	// B, 3 matches both D and E and must go to D, 4 reaches A at the head.
	sends := []struct {
		from *Rank
		tag  int
	}{{r2, 9}, {r1, 5}, {r1, 5}, {r1, 7}, {r1, 5}}
	var sender script
	for i, s := range sends {
		sender = append(sender, sleep(time.Millisecond), do(func() { s.from.Send(0, s.tag, i+1) }))
	}
	spawn(sender)

	// Rank 1's queue, oldest first: tags 1, 3 (from rank 0), 2, 3, 2.
	var took []int
	try := func(from, tag int) {
		if m, ok := r1.TryRecv(from, tag); ok {
			took = append(took, m.Data.(int))
		}
	}
	spawn(script{
		do(func() {
			r2.Send(1, 1, 10)
			r0.Send(1, 3, 15)
			r2.Send(1, 2, 20)
			r2.Send(1, 3, 30)
			r2.Send(1, 2, 40)
		}),
		sleep(time.Millisecond),
		do(func() {
			try(2, 3)         // behind two non-matching messages
			try(AnySource, 2) // 20 and 40 match: the older wins
			for r1.Pending() > 0 {
				try(AnySource, AnyTag)
			}
		}),
	})
	k.Run()
	k.Shutdown()

	if want := []int{4, 2, 1, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("waiters A..E got %v, want %v", got, want)
	}
	if want := []int{30, 20, 10, 15, 40}; !reflect.DeepEqual(took, want) {
		t.Errorf("TryRecv took %v, want %v", took, want)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	var recvAt simkernel.Time
	k := simkernel.New()
	w := NewWorld(k, 2, Options{Latency: time.Microsecond})
	launch(w, func(r *Rank) script {
		if r.Rank() == 0 {
			return script{
				sleep(time.Millisecond),
				do(func() { r.Send(1, 1, nil) }),
			}
		}
		var m Message
		return script{
			recv(r, 0, 1, &m),
			do(func() { recvAt = k.Now() }),
		}
	})
	k.Run()
	k.Shutdown()
	want := simkernel.Time(time.Millisecond + time.Microsecond)
	if recvAt != want {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
}

func TestTryRecv(t *testing.T) {
	run(t, 2, func(r *Rank) script {
		if r.Rank() != 0 {
			return script{do(func() { r.Send(0, 9, 42) })}
		}
		return script{
			do(func() {
				if _, ok := r.TryRecv(AnySource, AnyTag); ok {
					t.Error("TryRecv should fail with empty queue")
				}
			}),
			sleep(time.Millisecond),
			do(func() {
				m, ok := r.TryRecv(1, 9)
				if !ok || m.Data.(int) != 42 {
					t.Errorf("TryRecv = %v,%v", m, ok)
				}
				if r.Pending() != 0 {
					t.Errorf("pending = %d", r.Pending())
				}
			}),
		}
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	panicked := false
	run(t, 2, func(r *Rank) script {
		if r.Rank() != 0 {
			return nil
		}
		return script{do(func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			r.Send(7, 0, nil)
		})}
	})
	if !panicked {
		t.Fatal("expected panic for invalid destination")
	}
}

func TestZeroWorldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(simkernel.New(), 0, Options{})
}

func TestMessageCountStat(t *testing.T) {
	w := run(t, 3, func(r *Rank) script {
		if r.Rank() != 0 {
			return script{do(func() { r.Send(0, 1, nil) })}
		}
		var m Message
		return script{recv(r, AnySource, 1, &m), recv(r, AnySource, 1, &m)}
	})
	if w.MessagesSent != 2 {
		t.Fatalf("messages sent = %d", w.MessagesSent)
	}
}

// Property: any random pattern of sends is fully received with wildcard
// receives, in per-sender order, regardless of interleaving.
func TestAllMessagesDeliveredProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		senders := len(counts)
		if senders == 0 || senders > 6 {
			return true
		}
		total := 0
		for i := range counts {
			counts[i] = counts[i] % 20
			total += int(counts[i])
		}
		k := simkernel.New()
		w := NewWorld(k, senders+1, Options{})
		perSender := make([][]int, senders+1)
		launch(w, func(r *Rank) script {
			var s script
			if r.Rank() == 0 {
				for i := 0; i < total; i++ {
					var m Message
					s = append(s, recv(r, AnySource, AnyTag, &m), do(func() {
						perSender[m.From] = append(perSender[m.From], m.Data.(int))
					}))
				}
				return s
			}
			n := int(counts[r.Rank()-1])
			for i := 0; i < n; i++ {
				s = append(s,
					do(func() { r.Send(0, 1, i) }),
					sleep(time.Duration(r.Rank())*time.Microsecond))
			}
			return s
		})
		k.Run()
		k.Shutdown()
		for s := 1; s <= senders; s++ {
			if len(perSender[s]) != int(counts[s-1]) {
				return false
			}
			for i, v := range perSender[s] {
				if v != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
