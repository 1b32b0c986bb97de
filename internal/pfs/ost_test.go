package pfs

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// flatConfig returns a config with unit efficiency curves and zero latency
// so that tests can assert exact completion times.
func flatConfig() Config {
	return Config{
		NumOSTs:      4,
		DiskBW:       100,
		CacheBytes:   1000,
		IngestBW:     400,
		ClientCap:    50,
		DiskEff:      EffCurve{Alpha: 1e-12, Beta: 1}, // ≈1 but non-zero to avoid default fill
		NetEff:       EffCurve{Alpha: 1e-12, Beta: 1},
		WriteLatency: time.Nanosecond, // non-zero to avoid default fill
		MDSCapacity:  4,
	}
}

func almostT(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestSingleWriteClientCapped(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 500, nil), // cache-regime rate = min(50, 400) = 50
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	almostT(t, doneAt, 10.0, 1e-6, "500 bytes at clientCap 50")
}

func TestCacheFullThrottlesToDiskRate(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 200 // faster than disk so the cache fills
	k := simkernel.New()
	fs := MustNew(k, cfg)
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 10000, nil),
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	// Fill phase: rate 200, drain 100, fill rate 100 → cache (1000) full at
	// t=10 with 2000 bytes ingested. Then throttled to 100 B/s for the
	// remaining 8000 → completes at t=90.
	almostT(t, doneAt, 90.0, 1e-6, "cache-throttled write")
}

func TestFlushWaitsForDrain(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 200
	k := simkernel.New()
	fs := MustNew(k, cfg)
	var flushedAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 10000, nil),
		ostFlush(fs, fs.OST(0)),
		do(func() { flushedAt = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	// All 10000 bytes on disk at 100 B/s → t=100 regardless of caching.
	almostT(t, flushedAt, 100.0, 1e-6, "flush completes when bytes hit disk")
}

func TestFlushOnCleanOSTReturnsImmediately(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var at float64 = -1
	k.SpawnCont(run(
		ostFlush(fs, fs.OST(0)),
		do(func() { at = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	almostT(t, at, 0, 1e-9, "clean flush")
}

func TestTwoFlowsShareIngestFairly(t *testing.T) {
	cfg := flatConfig()
	cfg.IngestBW = 60 // below 2×clientCap so sharing binds
	k := simkernel.New()
	fs := MustNew(k, cfg)
	ends := make([]float64, 2)
	for i := 0; i < 2; i++ {
		k.SpawnCont(run(
			ostWrite(fs.OST(0), 300, nil), // each gets 30 B/s
			do(func() { ends[i] = k.Now().Seconds() }),
		))
	}
	k.Run()
	k.Shutdown()
	almostT(t, ends[0], 10.0, 1e-6, "flow 0 at fair share")
	almostT(t, ends[1], 10.0, 1e-6, "flow 1 at fair share")
}

func TestStaggeredFlowSpeedsUpAfterDeparture(t *testing.T) {
	cfg := flatConfig()
	cfg.IngestBW = 60
	k := simkernel.New()
	fs := MustNew(k, cfg)
	var end2 float64
	k.SpawnCont(run(ostWrite(fs.OST(0), 150, nil))) // 30 B/s shared → done at t=5
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 300, nil),
		do(func() { end2 = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	// w2: 150 bytes in first 5s at 30 B/s, remaining 150 at min(50,60)=50
	// → 3 more seconds → t=8.
	almostT(t, end2, 8.0, 1e-5, "flow accelerates when partner departs")
}

func TestExternalStreamsStealBandwidth(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 400 // disk-bound quickly
	cfg.CacheBytes = 1  // effectively no cache
	k := simkernel.New()
	fs := MustNew(k, cfg)
	fs.OST(0).SetExternalStreams(1) // we get disk*1/2 = 50
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 500, nil),
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	almostT(t, doneAt, 10.0, 0.2, "external stream halves our disk share")
}

func TestSlowFactorDegradesDrain(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 400
	cfg.CacheBytes = 1
	k := simkernel.New()
	fs := MustNew(k, cfg)
	fs.OST(0).SetSlowFactor(0.5) // disk now 50
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 500, nil),
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	almostT(t, doneAt, 10.0, 0.2, "slow factor halves drain")
}

func TestSlowFactorClamps(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	fs.OST(0).SetSlowFactor(5)
	if got := fs.OST(0).SlowFactor(); got != 1 {
		t.Fatalf("slow factor = %v, want clamp to 1", got)
	}
	fs.OST(0).SetSlowFactor(-2)
	if got := fs.OST(0).SlowFactor(); got != 1e-3 {
		t.Fatalf("slow factor = %v, want clamp to 1e-3", got)
	}
	fs.OST(0).SetExternalStreams(-5)
	if got := fs.OST(0).ExternalStreams(); got != 0 {
		t.Fatalf("external streams = %v, want clamp to 0", got)
	}
}

func TestMidFlightInterferenceChangesRate(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 400
	cfg.CacheBytes = 1
	k := simkernel.New()
	fs := MustNew(k, cfg)
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 1000, nil), // at 100 B/s would finish at t=10
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.AfterSeconds(5, func() { fs.OST(0).SetSlowFactor(0.5) })
	k.Run()
	k.Shutdown()
	// 500 bytes in first 5 s, remaining 500 at 50 B/s → 10 more → t=15.
	almostT(t, doneAt, 15.0, 0.3, "mid-flight slowdown")
}

func TestEffCurve(t *testing.T) {
	c := EffCurve{Alpha: 0.05, Beta: 1}
	if c.Eval(1) != 1 || c.Eval(0) != 1 || c.Eval(-3) != 1 {
		t.Fatal("eff(≤1) must be 1")
	}
	if got := c.Eval(2); math.Abs(got-1/1.05) > 1e-12 {
		t.Fatalf("eff(2) = %v", got)
	}
	if c.Eval(10) >= c.Eval(5) {
		t.Fatal("efficiency must decrease with stream count")
	}
	if (EffCurve{}).Eval(100) != 1 {
		t.Fatal("zero curve must be identity")
	}
}

func TestConservationProperty(t *testing.T) {
	// Random bursts of writes followed by a flush must conserve bytes:
	// ingested == total written, drained == ingested after flush.
	f := func(seed int64) bool {
		rng := rngx.New(seed)
		cfg := flatConfig()
		cfg.ClientCap = 150
		cfg.CacheBytes = 500
		k := simkernel.New()
		fs := MustNew(k, cfg)
		wg := new(simkernel.WaitGroup)
		n := 2 + rng.Intn(6)
		var total float64
		for i := 0; i < n; i++ {
			size := float64(50 + rng.Intn(2000))
			start := rng.Float64() * 10
			total += size
			wg.Add(1)
			k.SpawnContAt(simkernel.FromSeconds(start), run(
				ostWrite(fs.OST(0), size, nil),
				do(wg.Done),
			))
		}
		ok := true
		k.SpawnCont(run(
			stepFunc(wg.WaitCont),
			ostFlush(fs, fs.OST(0)),
			do(func() {
				ing := fs.TotalBytesIngested()
				dr := fs.TotalBytesDrained()
				if math.Abs(ing-total) > 1e-3*total+1e-3 {
					ok = false
				}
				if math.Abs(dr-ing) > 1e-3*total+1e-3 {
					ok = false
				}
			}),
		))
		k.Run()
		k.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOSTDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := flatConfig()
		k := simkernel.New()
		fs := MustNew(k, cfg)
		var ends []float64
		for i := 0; i < 5; i++ {
			size := float64(100 * (i + 1))
			k.SpawnContAt(simkernel.Time(i), run(
				ostWrite(fs.OST(0), size, nil),
				do(func() { ends = append(ends, k.Now().Seconds()) }),
			))
		}
		k.Run()
		k.Shutdown()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStatsCounters(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	for i := 0; i < 3; i++ {
		k.SpawnCont(run(
			ostWrite(fs.OST(1), 100, nil),
			ostFlush(fs, fs.OST(1)),
		))
	}
	k.Run()
	k.Shutdown()
	s := fs.OST(1).Stats
	if s.WritesStarted != 3 || s.WritesFinished != 3 {
		t.Fatalf("writes started/finished = %d/%d", s.WritesStarted, s.WritesFinished)
	}
	if s.MaxConcurrency != 3 {
		t.Fatalf("max concurrency = %d, want 3", s.MaxConcurrency)
	}
	if math.Abs(s.BytesIngested-300) > 1e-3 || math.Abs(s.BytesDrained-300) > 1e-3 {
		t.Fatalf("bytes ingested/drained = %v/%v", s.BytesIngested, s.BytesDrained)
	}
}

func TestZeroByteWriteCostsOnlyLatency(t *testing.T) {
	cfg := flatConfig()
	cfg.WriteLatency = time.Second
	k := simkernel.New()
	fs := MustNew(k, cfg)
	var at float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 0, nil),
		do(func() { at = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	almostT(t, at, 1.0, 1e-9, "zero-byte write")
}

func TestNegativeWritePanics(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fs.OST(0).StartWrite(-1, nil)
}

// TestFlushWatermarksMonotone pins the ordering invariant of an OST's flush
// waiters: each waiter's watermark is the ingested total when its flush
// began, so the watermarks in the o.waiters ring never decrease from head to
// tail and the head holds the minimum. Completions pop the satisfied prefix,
// so the head must be unsatisfied whenever a flusher runs; a waiter left
// behind there would mean fireCompletions stopped early (the next boundary
// would pop it a nanosecond late, so the check runs at each flush return,
// in the same instant as the pop). Writers and flushers interleave on one
// target while the kernel advances in small steps; the queue is checked
// after every step too.
func TestFlushWatermarksMonotone(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rngx.New(seed)
		cfg := flatConfig()
		cfg.ClientCap = 200 // faster than disk, so flushes queue up
		k := simkernel.New()
		fs := MustNew(k, cfg)
		o := fs.OST(0)
		headUnsatisfied := func() {
			if o.waiters.Len() > 0 && o.drainedTotal+completionEps >= o.waiters.Front().watermark {
				t.Errorf("seed %d, t=%v: head waiter (watermark %v) already satisfied at drained total %v but still queued",
					seed, k.Now(), o.waiters.Front().watermark, o.drainedTotal)
			}
		}
		live := new(simkernel.WaitGroup)
		live.Add(6 + 2*8)
		for i := 0; i < 6; i++ {
			at := simkernel.FromSeconds(rng.Float64() * 20)
			k.SpawnContAt(at, run(
				ostWrite(o, float64(100+rng.Intn(3000)), nil),
				ostWrite(o, float64(100+rng.Intn(3000)), nil),
				do(live.Done),
			))
		}
		for i := 0; i < 8; i++ {
			// Flushers start in pairs, so each pair shares a watermark and is
			// satisfied by the same event.
			at := simkernel.FromSeconds(rng.Float64() * 30)
			for range 2 {
				k.SpawnContAt(at, run(ostFlush(fs, o), do(headUnsatisfied), ostFlush(fs, o), do(headUnsatisfied), do(live.Done)))
			}
		}
		maxDepth := 0
		for at := simkernel.Time(0); live.Count() > 0; {
			at += simkernel.FromSeconds(0.25)
			k.RunUntil(at)
			// Rotate the queue once round: Pop-then-Push never grows the
			// ring and leaves its order as it was.
			n := o.waiters.Len()
			prev := math.Inf(-1)
			for i := 0; i < n; i++ {
				w := o.waiters.Pop()
				if w.watermark < prev {
					t.Fatalf("seed %d, t=%v: waiter %d watermark %v below waiter %d's %v",
						seed, k.Now(), i, w.watermark, i-1, prev)
				}
				prev = w.watermark
				o.waiters.Push(w)
			}
			headUnsatisfied()
			maxDepth = max(maxDepth, n)
		}
		if maxDepth < 2 {
			t.Fatalf("seed %d: at most %d flush waiter queued; the check never compared two", seed, maxDepth)
		}
		k.Shutdown()
	}
}
