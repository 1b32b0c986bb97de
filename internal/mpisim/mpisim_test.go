package mpisim

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simkernel"
)

func run(t *testing.T, size int, fn func(r *Rank)) *World {
	t.Helper()
	k := simkernel.New()
	w := NewWorld(k, size, Options{})
	wg := w.Launch("t", fn)
	k.Run()
	if wg.Count() != 0 {
		t.Fatalf("%d ranks did not finish (deadlock?)", wg.Count())
	}
	k.Shutdown()
	return w
}

func TestPingPong(t *testing.T) {
	var got string
	run(t, 2, func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 7, "ping")
			m := r.Recv(1, 8)
			got = m.Data.(string)
		case 1:
			m := r.Recv(0, 7)
			if m.Data.(string) != "ping" {
				t.Error("bad ping payload")
			}
			r.Send(0, 8, "pong")
		}
	})
	if got != "pong" {
		t.Fatalf("got %q", got)
	}
}

func TestPerSourceTagOrdering(t *testing.T) {
	var got []int
	run(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 3, i)
			}
		} else {
			for i := 0; i < 10; i++ {
				got = append(got, r.Recv(0, 3).Data.(int))
			}
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestWildcardSourceAndTag(t *testing.T) {
	var froms []int
	run(t, 4, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 3; i++ {
				m := r.Recv(AnySource, AnyTag)
				froms = append(froms, m.From)
			}
		} else {
			r.Send(0, 100+r.Rank(), "hello")
		}
	})
	sort.Ints(froms)
	if !reflect.DeepEqual(froms, []int{1, 2, 3}) {
		t.Fatalf("froms = %v", froms)
	}
}

func TestSelectiveRecvSkipsNonMatching(t *testing.T) {
	var tag5, tag6 int
	run(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 5, 50)
			r.Send(1, 6, 60)
		} else {
			// Receive tag 6 first even though tag 5 arrived first.
			tag6 = r.Recv(0, 6).Data.(int)
			tag5 = r.Recv(0, 5).Data.(int)
		}
	})
	if tag5 != 50 || tag6 != 60 {
		t.Fatalf("tag5=%d tag6=%d", tag5, tag6)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	var recvAt simkernel.Time
	k := simkernel.New()
	w := NewWorld(k, 2, Options{Latency: time.Microsecond})
	w.Launch("t", func(r *Rank) {
		if r.Rank() == 0 {
			r.Proc().Sleep(time.Millisecond)
			r.Send(1, 1, nil)
		} else {
			r.Recv(0, 1)
			recvAt = r.Proc().Now()
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
	run(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			if _, ok := r.TryRecv(AnySource, AnyTag); ok {
				t.Error("TryRecv should fail with empty queue")
			}
			r.Proc().Sleep(time.Millisecond)
			m, ok := r.TryRecv(1, 9)
			if !ok || m.Data.(int) != 42 {
				t.Errorf("TryRecv = %v,%v", m, ok)
			}
			if r.Pending() != 0 {
				t.Errorf("pending = %d", r.Pending())
			}
		} else {
			r.Send(0, 9, 42)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var exits []simkernel.Time
	run(t, 5, func(r *Rank) {
		r.Proc().Sleep(time.Duration(r.Rank()) * time.Millisecond)
		r.Barrier()
		exits = append(exits, r.Proc().Now())
	})
	if len(exits) != 5 {
		t.Fatalf("exits = %v", exits)
	}
	for _, e := range exits {
		if e < simkernel.Time(4*time.Millisecond) {
			t.Fatalf("rank exited barrier at %v before last arrival", e)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	count := 0
	run(t, 3, func(r *Rank) {
		for i := 0; i < 4; i++ {
			r.Barrier()
		}
		count++
	})
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	panicked := false
	run(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			r.Send(7, 0, nil)
		}
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
	w := run(t, 3, func(r *Rank) {
		if r.Rank() != 0 {
			r.Send(0, 1, nil)
		} else {
			r.Recv(AnySource, 1)
			r.Recv(AnySource, 1)
		}
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
		w.Launch("p", func(r *Rank) {
			if r.Rank() == 0 {
				for i := 0; i < total; i++ {
					m := r.Recv(AnySource, AnyTag)
					perSender[m.From] = append(perSender[m.From], m.Data.(int))
				}
				return
			}
			n := int(counts[r.Rank()-1])
			for i := 0; i < n; i++ {
				r.Send(0, 1, i)
				r.Proc().Sleep(time.Duration(r.Rank()) * time.Microsecond)
			}
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
