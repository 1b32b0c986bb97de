package core

import (
	"testing"

	"repro/internal/iomethod"
	"repro/internal/iomethod/iomethodtest"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Failure-path tests for the adaptive method: a storage target that dies
// mid-step fails its writers with ErrTargetDown after the client timeout;
// the sub-coordinator requeues them and the coordinator shifts them onto
// idle healthy targets, while a backoff probe retries the dead target until
// it revives. The ablation (DisableAdaptation) can only wait for revival.

// runCrashStep runs one adaptive step of 16 writers over 4 targets with
// OST 0 (group 0's target) crashing at crashAt and reviving at reviveAt
// (virtual seconds); zero crashAt/reviveAt means no failure.
func runCrashStep(t *testing.T, cfg Config, crashAt, reviveAt float64) iomethod.StepResult {
	t.Helper()
	const writers, numOSTs = 16, 4
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = numOSTs + 1 // room for the global index file
	fsCfg.DeadTimeout = 0.5
	fs := pfs.MustNew(k, fsCfg)
	if reviveAt > 0 {
		k.AfterSeconds(crashAt, func() { fs.OST(0).SetHealth(pfs.Dead, 1) })
		k.AfterSeconds(reviveAt, func() { fs.OST(0).SetHealth(pfs.Healthy, 1) })
	}
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	cfg.OSTs = []int{0, 1, 2, 3}
	a, err := New(w, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	data := func(rank int) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "u", Bytes: int64(pfs.MB) * int64(8+rank%3), Min: 0, Max: 1},
		}}
	}
	iomethodtest.LaunchStep(w, a, "out", func(r *mpisim.Rank) iomethod.RankData { return data(r.Rank()) }, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run()
	if res == nil {
		t.Fatal("step did not complete (deadlock under failure?)")
	}
	k.Shutdown()
	return *res
}

// TestAdaptiveShiftsWritersOffDeadTarget: with adaptation on, a crashed
// target's queued writers are redirected to idle healthy targets — every
// rank's payload lands despite failures along the way.
func TestAdaptiveShiftsWritersOffDeadTarget(t *testing.T) {
	res := runCrashStep(t, Config{}, 0.001, 30)
	var want float64
	for rank := 0; rank < 16; rank++ {
		want += float64(int64(pfs.MB) * int64(8+rank%3))
	}
	if res.TotalBytes != want {
		t.Fatalf("TotalBytes = %v, want %v (payload lost)", res.TotalBytes, want)
	}
	if res.WriteFailures == 0 {
		t.Fatal("expected write failures against the dead target")
	}
	if res.AdaptiveWrites == 0 {
		t.Fatal("expected writers shifted off the dead target (adaptive writes)")
	}
	// The shift must beat waiting for revival at t=30: everything except the
	// dead group's own file (index append) finishes on healthy targets.
	if res.Elapsed > 29 {
		t.Fatalf("step took %.1fs — writers waited for revival instead of shifting", res.Elapsed)
	}
}

// TestAblationWaitsForRevival: with adaptation off, the dead group can only
// retry its own target until it revives, so the step spans the outage.
func TestAblationWaitsForRevival(t *testing.T) {
	revive := 4.0
	res := runCrashStep(t, Config{DisableAdaptation: true}, 0.001, revive)
	var want float64
	for rank := 0; rank < 16; rank++ {
		want += float64(int64(pfs.MB) * int64(8+rank%3))
	}
	if res.TotalBytes != want {
		t.Fatalf("TotalBytes = %v, want %v (payload lost)", res.TotalBytes, want)
	}
	if res.WriteFailures == 0 {
		t.Fatal("expected write failures against the dead target")
	}
	if res.AdaptiveWrites != 0 {
		t.Fatal("ablation must not redirect writes")
	}
	if res.Elapsed < revive {
		t.Fatalf("step finished in %.2fs, before the target revived at %.1fs", res.Elapsed, revive)
	}
	// And it must converge shortly after revival, not much later.
	if res.Elapsed > revive+10 {
		t.Fatalf("step took %.1fs — retry probes failed to reclaim the revived target", res.Elapsed)
	}
}
