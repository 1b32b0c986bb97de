package simkernel

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rngx"
)

// TestResetReplaysWorkloadBitIdentically is the core world-reuse contract at
// the kernel layer: running the randomized property workload on a Reset
// kernel yields the same trace as on a fresh one.
func TestResetReplaysWorkloadBitIdentically(t *testing.T) {
	f := func(seed int64) bool {
		fresh := runRandomWorkload(seed)
		k := New()
		runRandomWorkloadOn(k, seed^0x5bd1e995) // dirty the kernel with a different run
		k.Reset()
		reused := runRandomWorkloadOn(k, seed)
		k.Shutdown()
		return reflect.DeepEqual(fresh, reused)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestResetClearsClockQueueAndTimers verifies a Reset kernel starts from
// t=0 with an empty queue and that Timer handles from the previous run are
// inert against events scheduled after the Reset.
func TestResetClearsClockQueueAndTimers(t *testing.T) {
	k := New()
	stale := k.At(50, func() { t.Fatal("pre-Reset event fired") })
	k.At(10, func() {})
	k.RunUntil(20)
	if k.Now() != 10 {
		t.Fatalf("now = %v, want 10", k.Now())
	}
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 {
		t.Fatalf("after Reset now=%v pending=%d, want 0/0", k.Now(), k.Pending())
	}
	fired := false
	k.At(5, func() { fired = true })
	if stale.Active() {
		t.Fatal("stale Timer reports Active after Reset")
	}
	stale.Cancel() // must not cancel the new event even if it reuses the slot
	k.Run()
	if !fired {
		t.Fatal("post-Reset event was cancelled by a stale Timer handle")
	}
	k.Shutdown()
}

// TestShutdownAfterRunTerminatesFinishedProcs pins Shutdown after a run
// whose bodies completed normally (without a Reset in between): the
// processes stay done, and a second Shutdown is a no-op.
func TestShutdownAfterRunTerminatesFinishedProcs(t *testing.T) {
	k := New()
	p := k.SpawnCont("done", run())
	k.Run()
	if !p.Done() {
		t.Fatal("body should have completed")
	}
	k.Shutdown()
	if !p.Done() {
		t.Fatal("Shutdown revived a finished proc")
	}
	k.Shutdown()
}

// TestResetZeroAlloc gates the rebuild-free claim at the kernel layer: a
// spawn/run/Reset cycle of continuation bodies — the engine every campaign
// runs — on a warmed kernel allocates nothing.
func TestResetZeroAlloc(t *testing.T) {
	k := New()
	bodies := make([]sleeperCont, 8)
	cycle := func() {
		for i := range bodies {
			bodies[i].left = 1
			k.SpawnCont("w", &bodies[i])
		}
		k.Run()
		k.Reset()
	}
	cycle() // warm pool, queue, procs, shell freelist
	got := testing.AllocsPerRun(100, cycle)
	if got != 0 {
		t.Fatalf("spawn/run/Reset cycle allocates %v allocs/op in steady state; want 0", got)
	}
	k.Shutdown()
}

// runRandomWorkloadOn is runRandomWorkload against a caller-owned kernel
// (fresh or Reset), without the trailing Shutdown.
func runRandomWorkloadOn(k *Kernel, seed int64) []int64 {
	rng := rngx.New(seed)
	res := NewResource(k, 1+rng.Intn(3))
	// done is the collector's inbox: workers append and wake the collector
	// if it is waiting; the collector drains in arrival order.
	var done []int
	var wakeCollector func()
	var trace []int64
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		delay := time.Duration(rng.Intn(100))
		hold := time.Duration(1 + rng.Intn(50))
		k.SpawnContAt(Time(rng.Intn(50)), "p", run(
			sleep(delay),
			acquire(res),
			do(func() { trace = append(trace, int64(k.Now()), int64(i)) }),
			sleep(hold),
			do(func() {
				res.Release()
				done = append(done, i)
				if wakeCollector != nil {
					wakeCollector()
					wakeCollector = nil
				}
			}),
		))
	}
	j := 0
	k.SpawnCont("collector", contFunc(func(c *ContProc) bool {
		for ; j < n; j++ {
			if len(done) == 0 {
				wakeCollector = c.Waker()
				c.Pause()
				return false
			}
			v := done[0]
			done = done[1:]
			trace = append(trace, int64(c.Now()), int64(100+v))
		}
		return true
	}))
	k.Run()
	return trace
}

// BenchmarkWorldReset measures the per-replica kernel recycling cost — the
// Reset sweep plus re-arming a population of continuation bodies — against
// BenchmarkReplicaSetupTeardown's fresh-build baseline in package cluster.
func BenchmarkWorldReset(b *testing.B) {
	b.ReportAllocs()
	k := New()
	bodies := make([]sleeperCont, 64)
	run := func() {
		for i := range bodies {
			bodies[i].left = 1
			k.SpawnCont("w", &bodies[i])
		}
		k.Run()
		k.Reset()
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	k.Shutdown()
}
