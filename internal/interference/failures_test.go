package interference

import (
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/simkernel"
)

func failScript() FailureConfig {
	return FailureConfig{
		Enabled: true,
		Episodes: []FailureEpisode{
			{OST: 1, At: 2, DeadFor: 3, RebuildFor: 4, RebuildTax: 0.5},
			{OST: 3, At: 5, DeadFor: 1}, // no rebuild phase
		},
		MDSStallAt:  1,
		MDSStallFor: 2,
	}
}

// sampleHealth records OST states at fixed virtual times via kernel events.
func sampleHealth(k *simkernel.Kernel, fs *pfs.FileSystem, ost int, at ...float64) []pfs.HealthState {
	out := make([]pfs.HealthState, len(at))
	for i := range at {
		i := i
		// +1ns so the probe fires after same-timestamp transitions.
		k.At(simkernel.FromSeconds(at[i])+1, func() { out[i] = fs.OST(ost).Health() })
	}
	return out
}

func TestFailureScriptDrivesHealthLifecycle(t *testing.T) {
	k, fs := testFS(t, 4)
	if _, err := StartFailures(fs, failScript()); err != nil {
		t.Fatal(err)
	}
	ost1 := sampleHealth(k, fs, 1, 0, 2, 4, 5, 8, 9.5)
	ost3 := sampleHealth(k, fs, 3, 4, 5, 6)
	k.RunUntil(simkernel.FromSeconds(20))

	want1 := []pfs.HealthState{pfs.Healthy, pfs.Dead, pfs.Dead, pfs.Rebuilding, pfs.Rebuilding, pfs.Healthy}
	for i, w := range want1 {
		if ost1[i] != w {
			t.Errorf("OST 1 sample %d: health %v, want %v", i, ost1[i], w)
		}
	}
	// OST 3 has no rebuild phase: Dead at 5, straight back to Healthy at 6.
	want3 := []pfs.HealthState{pfs.Healthy, pfs.Dead, pfs.Healthy}
	for i, w := range want3 {
		if ost3[i] != w {
			t.Errorf("OST 3 sample %d: health %v, want %v", i, ost3[i], w)
		}
	}
	// Rebuilding taxes half the disk bandwidth.
	secs := fs.OST(1).HealthSeconds()
	if secs[pfs.Dead] != 3 || secs[pfs.Rebuilding] != 4 {
		t.Errorf("OST 1 state residence = %v, want Dead 3s, Rebuilding 4s", secs)
	}
	// The MDS stall window spans [1, 3].
	if got := fs.MDS.StallUntil(); got != simkernel.FromSeconds(3) {
		t.Errorf("MDS stall until %v, want 3s", got.Seconds())
	}
	k.Shutdown()
}

func TestFailureRebuildTaxesDiskBandwidth(t *testing.T) {
	k, fs := testFS(t, 4)
	if _, err := StartFailures(fs, failScript()); err != nil {
		t.Fatal(err)
	}
	var factor float64
	k.At(simkernel.FromSeconds(6), func() { factor = fs.OST(1).HealthFactor() })
	k.RunUntil(simkernel.FromSeconds(20))
	k.Shutdown()
	if factor != 0.5 {
		t.Fatalf("rebuild health factor = %v, want 0.5 (tax 0.5)", factor)
	}
}

func TestDisabledFailuresAreInert(t *testing.T) {
	k, fs := testFS(t, 4)
	cfg := failScript()
	cfg.Enabled = false
	if _, err := StartFailures(fs, cfg); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(simkernel.FromSeconds(20))
	k.Shutdown()
	for i := 0; i < 4; i++ {
		if fs.OST(i).Health() != pfs.Healthy {
			t.Fatalf("disabled injector perturbed OST %d", i)
		}
	}
	if fs.MDS.StallUntil() != 0 {
		t.Fatal("disabled injector stalled the MDS")
	}
}

// TestFailureResetReplaysBitIdentically pins the reuse contract: a Reset
// injector on a Reset kernel/fs replays the script exactly as a fresh one.
func TestFailureResetReplaysBitIdentically(t *testing.T) {
	run := func(k *simkernel.Kernel, fs *pfs.FileSystem) [pfs.NumHealthStates]float64 {
		k.RunUntil(simkernel.FromSeconds(20))
		return fs.OST(1).HealthSeconds()
	}

	k, fs := testFS(t, 4)
	fsCfg := fs.Cfg
	f, err := StartFailures(fs, failScript())
	if err != nil {
		t.Fatal(err)
	}
	first := run(k, fs)

	k.Reset()
	if err := fs.Reset(fsCfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(failScript()); err != nil {
		t.Fatal(err)
	}
	second := run(k, fs)
	k.Shutdown()

	if first != second {
		t.Fatalf("replayed residence diverged:\nfresh: %v\nreset: %v", first, second)
	}
	if first[pfs.Dead] != 3 {
		t.Fatalf("script did not run (Dead residence %v)", first[pfs.Dead])
	}
}

func TestFailureValidateRejectsBadScripts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FailureConfig)
		want string
	}{
		{"ost-range", func(c *FailureConfig) { c.Episodes[0].OST = 9 }, "out of range"},
		{"no-revival", func(c *FailureConfig) { c.Episodes[0].DeadFor = 0 }, "DeadFor must be positive"},
		{"negative-at", func(c *FailureConfig) { c.Episodes[0].At = -1 }, "negative crash time"},
		{"tax-range", func(c *FailureConfig) { c.Episodes[0].RebuildTax = 1 }, "RebuildTax"},
		{"negative-stall", func(c *FailureConfig) { c.MDSStallFor = -1 }, "MDS stall"},
		{"negative-timeout", func(c *FailureConfig) { c.DeadTimeout = -1 }, "dead timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := failScript()
			tc.mut(&cfg)
			err := cfg.Validate(4)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := failScript().Validate(4); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
}
