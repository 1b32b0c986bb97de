package pfs

import (
	"errors"
	"math"
	"testing"

	"repro/internal/simkernel"
)

// Tests for the OST/MDS health lifecycle: Dead targets fail newly issued
// client operations with ErrTargetDown after the configured timeout, stall
// in-flight transfers until revival, Rebuilding taxes drain bandwidth, and
// the per-state residence clock adds up.

func healthTestConfig() Config {
	return Config{NumOSTs: 4, Seed: 11, DeadTimeout: 2}
}

func TestDeadOSTWriteReturnsErrTargetDown(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	fs.OSTs[0].SetHealth(Dead, 1)
	var err error
	var elapsed float64
	var f *File
	var cerr error
	var start simkernel.Time
	k.SpawnCont("w", run(
		create(fs, "out", Layout{OSTs: []int{0}}, &f, &cerr),
		stopIf(func() bool {
			if cerr != nil {
				t.Errorf("create: %v", cerr)
				return true
			}
			start = k.Now()
			return false
		}),
		writeAt(&f, 0, 1<<20, &err),
		do(func() { elapsed = (k.Now() - start).Seconds() }),
	))
	k.Run()
	k.Shutdown()
	if !errors.Is(err, ErrTargetDown) {
		t.Fatalf("WriteAt error = %v, want ErrTargetDown", err)
	}
	var tde *TargetDownError
	if !errors.As(err, &tde) || tde.OST != 0 {
		t.Fatalf("error = %#v, want TargetDownError{OST: 0}", err)
	}
	if elapsed < 2 {
		t.Fatalf("write failed after %.3fs, want >= DeadTimeout (2s)", elapsed)
	}
	if got := fs.OSTs[0].Stats.WritesFailed; got != 1 {
		t.Fatalf("WritesFailed = %d, want 1", got)
	}
}

func TestDeadOSTReadReturnsErrTargetDown(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	var err error
	var f *File
	var cerr, werr error
	k.SpawnCont("r", run(
		create(fs, "in", Layout{OSTs: []int{1}}, &f, &cerr),
		stopIf(func() bool {
			if cerr != nil {
				t.Errorf("create: %v", cerr)
				return true
			}
			return false
		}),
		writeAt(&f, 0, 1<<20, &werr),
		do(func() {
			if werr != nil {
				t.Errorf("seed write: %v", werr)
			}
		}),
		flush(&f),
		do(func() { fs.OSTs[1].SetHealth(Dead, 1) }),
		readAt(&f, 0, 1<<20, &err),
	))
	k.Run()
	k.Shutdown()
	if !errors.Is(err, ErrTargetDown) {
		t.Fatalf("ReadAt error = %v, want ErrTargetDown", err)
	}
	if got := fs.OSTs[1].Stats.ReadsFailed; got != 1 {
		t.Fatalf("ReadsFailed = %d, want 1", got)
	}
}

// TestInFlightWriteStallsUntilRevival pins the Lustre-style semantics for
// operations already in flight when a target dies: the transfer stalls at
// zero rate and resumes when the target revives, with no error surfaced.
func TestInFlightWriteStallsUntilRevival(t *testing.T) {
	elapsedWith := func(crash bool) (float64, error) {
		k := simkernel.New()
		cfg := healthTestConfig()
		cfg.CacheBytes = 1 // force drain-bound writes
		fs := MustNew(k, cfg)
		if crash {
			// Crash mid-transfer, revive 5 seconds later.
			k.AfterSeconds(0.5, func() { fs.OSTs[0].SetHealth(Dead, 1) })
			k.AfterSeconds(5.5, func() { fs.OSTs[0].SetHealth(Healthy, 1) })
		}
		var err error
		var el float64
		var f *File
		var start simkernel.Time
		k.SpawnCont("w", run(
			create(fs, "big", Layout{OSTs: []int{0}}, &f, &err),
			stopIf(func() bool {
				start = k.Now()
				return err != nil
			}),
			writeAt(&f, 0, 256<<20, &err),
			flush(&f),
			do(func() { el = (k.Now() - start).Seconds() }),
		))
		k.Run()
		k.Shutdown()
		return el, err
	}
	clean, err := elapsedWith(false)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	stalled, err := elapsedWith(true)
	if err != nil {
		t.Fatalf("crashed run: %v", err)
	}
	if stalled < clean+4.5 {
		t.Fatalf("stalled run took %.3fs vs clean %.3fs; want >= %.3fs (5s outage)",
			stalled, clean, clean+4.5)
	}
}

// TestRebuildTaxSlowsDrain pins that Rebuilding consumes backend bandwidth:
// the same drain-bound write takes measurably longer under a rebuild tax.
func TestRebuildTaxSlowsDrain(t *testing.T) {
	elapsedWith := func(h HealthState, factor float64) float64 {
		k := simkernel.New()
		cfg := healthTestConfig()
		cfg.CacheBytes = 1
		fs := MustNew(k, cfg)
		fs.OSTs[0].SetHealth(h, factor)
		var el float64
		var f *File
		var err, werr error
		var start simkernel.Time
		k.SpawnCont("w", run(
			create(fs, "big", Layout{OSTs: []int{0}}, &f, &err),
			stopIf(func() bool {
				if err != nil {
					t.Errorf("create: %v", err)
					return true
				}
				start = k.Now()
				return false
			}),
			writeAt(&f, 0, 64<<20, &werr),
			do(func() {
				if werr != nil {
					t.Errorf("write: %v", werr)
				}
			}),
			flush(&f),
			do(func() { el = (k.Now() - start).Seconds() }),
		))
		k.Run()
		k.Shutdown()
		return el
	}
	// A 0.9 rebuild tax drops the drain rate well below the client cap, so
	// the transfer becomes drain-bound and visibly slower.
	healthy := elapsedWith(Healthy, 1)
	rebuild := elapsedWith(Rebuilding, 0.1)
	if rebuild < healthy*2 {
		t.Fatalf("rebuild run %.3fs vs healthy %.3fs; want >= 2x slower", rebuild, healthy)
	}
}

func TestHealthSecondsAccounting(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	o := fs.OSTs[2]
	k.AfterSeconds(1, func() { o.SetHealth(Dead, 1) })
	k.AfterSeconds(3, func() { o.SetHealth(Rebuilding, 0.5) })
	k.AfterSeconds(7, func() { o.SetHealth(Healthy, 1) })
	var got [NumHealthStates]float64
	k.AfterSeconds(10, func() { got = o.HealthSeconds() })
	k.Run()
	k.Shutdown()
	want := [NumHealthStates]float64{Healthy: 4, Dead: 2, Rebuilding: 4}
	for s := HealthState(0); s < NumHealthStates; s++ {
		if math.Abs(got[s]-want[s]) > 1e-9 {
			t.Fatalf("HealthSeconds[%v] = %v, want %v (all: %v)", s, got[s], want[s], got)
		}
	}
}

func TestMDSStallDelaysOps(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	fs.MDS.Stall(simkernel.FromSeconds(3))
	var opened simkernel.Time
	var f *File
	var err error
	k.SpawnCont("c", run(
		create(fs, "f", Layout{StripeCount: 1}, &f, &err),
		do(func() {
			if err != nil {
				t.Errorf("create: %v", err)
			}
			opened = k.Now()
		}),
	))
	k.Run()
	k.Shutdown()
	if opened < simkernel.FromSeconds(3) {
		t.Fatalf("create finished at %v, want >= 3s (stall window)", opened)
	}
	if fs.MDS.Stats.StallSeconds < 2.9 {
		t.Fatalf("StallSeconds = %v, want ~3", fs.MDS.Stats.StallSeconds)
	}
}

func TestSetHealthResetRestoresHealthy(t *testing.T) {
	k := simkernel.New()
	cfg := healthTestConfig()
	fs := MustNew(k, cfg)
	fs.OSTs[0].SetHealth(Dead, 1)
	fs.OSTs[1].SetHealth(Rebuilding, 0.25)
	fs.MDS.Stall(simkernel.FromSeconds(100))
	if err := fs.Reset(cfg); err != nil {
		t.Fatalf("reset: %v", err)
	}
	for i, o := range fs.OSTs {
		if o.Health() != Healthy || o.HealthFactor() != 1 {
			t.Fatalf("OST %d after reset: health=%v factor=%v", i, o.Health(), o.HealthFactor())
		}
		secs := o.HealthSeconds()
		for s, v := range secs {
			if HealthState(s) != Healthy && v != 0 {
				t.Fatalf("OST %d residence[%v]=%v after reset", i, HealthState(s), v)
			}
		}
	}
	if fs.MDS.StallUntil() != 0 {
		t.Fatalf("MDS stall survives reset: %v", fs.MDS.StallUntil())
	}
}
