package scenario_test

import (
	"testing"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/scenario"
)

// FuzzApplySet fuzzes the -set grammar against every registered scenario:
// ApplySet and Validate may refuse an override but never panic, and a spec
// they accept must survive JSON → Parse → JSON byte-identically and compile
// every grid point as Run would (scenario.CompilePoint).
func FuzzApplySet(f *testing.F) {
	for _, name := range scenario.Names() {
		s, _, err := scenario.Load(name, "quick")
		if err != nil {
			f.Fatal(err)
		}
		for _, ax := range s.Axes {
			f.Add(name, ax.Name+"="+ax.Values[0].String(), "samples=1")
		}
	}
	for _, set := range []string{"size=NaN", "size=Inf", "size=-Inf", "size_mb=NaN", "size=1e300"} {
		f.Add("fig1", set, "samples=1")
	}
	f.Add("jobmix-frontier", "njobs=100000000000", "samples=1")
	f.Fuzz(func(t *testing.T, name, set1, set2 string) {
		s, _, err := scenario.Load(name, "quick")
		if err != nil {
			return
		}
		if scenario.ApplySet(&s, set1) != nil || scenario.ApplySet(&s, set2) != nil || s.Validate() != nil {
			return
		}
		b, err := s.JSON()
		if err != nil {
			t.Fatalf("JSON of a valid spec: %v", err)
		}
		back, err := scenario.Parse(b)
		if err != nil {
			t.Fatalf("valid spec does not parse back: %v\n%s", err, b)
		}
		if again, err := back.JSON(); err != nil || string(again) != string(b) {
			t.Fatalf("JSON round trip changed the spec (%v):\n%s\n---\n%s", err, b, again)
		}
		for _, pt := range s.Points() {
			if _, err := scenario.CompilePoint(&s, pt.Params, 1<<16); err != nil {
				t.Fatalf("point %q of a valid spec does not compile: %v", pt.Label, err)
			}
		}
	})
}

// TestSetupAllocs pins the allocations of the set-up a user waits for
// before a campaign starts (Load, ApplySet, Validate) for the four
// benchmark workloads, each with the overrides bench/workloads.json gives
// it. It is the exact guard for the benchmark's setup_s, which is too
// noisy to settle by timing: a job list or a name table built while
// validating shows here first. A count may fall; it may not grow.
func TestSetupAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the counts are pinned for builds without the race detector")
	}
	for _, tc := range []struct {
		scenario string
		sets     []string
		allocs   float64
	}{
		{"fig5-xl", nil, 172},
		{"fig1", []string{"samples=16"}, 125},
		{"table1", []string{"samples=1200"}, 26},
		{"jobmix-frontier", []string{"samples=30", "njobs=4,8,16,24"}, 237},
	} {
		got := testing.AllocsPerRun(20, func() {
			s, _, err := scenario.Load(tc.scenario, "full")
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range tc.sets {
				if err := scenario.ApplySet(&s, set); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per set-up", tc.scenario, got)
		if got > tc.allocs {
			t.Errorf("%s set-up costs %.0f allocations, want at most %.0f", tc.scenario, got, tc.allocs)
		}
	}
}
