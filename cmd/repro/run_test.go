package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func tinySpec(name string) func(string) (scenario.Scenario, error) {
	return func(string) (scenario.Scenario, error) {
		return scenario.Scenario{
			Name:     name,
			NumOSTs:  2,
			Samples:  1,
			Workload: scenario.Workload{Kind: scenario.KindIOR, Writers: 2, SizeMB: 1},
		}, nil
	}
}

func init() {
	scenario.Register(scenario.Definition{
		Name: "cli-rendered",
		Spec: tinySpec("cli-rendered"),
		Render: func(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
			return []scenario.Artifact{{Name: "rendered.txt", Text: "rendered\n"}}, []string{"rendered line"}, nil
		},
	})
	scenario.Register(scenario.Definition{Name: "cli-generic", Spec: tinySpec("cli-generic")})
}

func TestSetWithoutScenarioRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	o := &options{sets: multiFlag{"samples=1", "bogus=3"}, mode: "quick", out: out, parallel: 1}
	err := o.run([]string{"cli-rendered"}, nil)
	if err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("Run with -set and no -scenario: err = %v, want an error naming -scenario", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Fatalf("rejected run wrote to -out (stat err %v)", statErr)
	}
}

func TestRunSuite(t *testing.T) {
	out := t.TempDir()
	o := &options{mode: "quick", out: out, seed: 7, parallel: 1}
	var reduced []string
	reduce := func(results []*scenario.Result) ([]scenario.Artifact, error) {
		for _, r := range results {
			reduced = append(reduced, r.Scenario.Name)
		}
		return []scenario.Artifact{{Name: "joint.txt", Text: fmt.Sprintf("%d runs\n", len(results))}}, nil
	}
	if err := o.run([]string{"cli-rendered", "cli-generic"}, reduce); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(reduced, ","); got != "cli-rendered,cli-generic" {
		t.Fatalf("reduce saw %q, want both runs in suite order", got)
	}
	for _, a := range []scenario.Artifact{{Name: "rendered.txt", Text: "rendered\n"}, {Name: "joint.txt", Text: "2 runs\n"}} {
		data, err := os.ReadFile(filepath.Join(out, a.Name))
		if err != nil || string(data) != a.Text {
			t.Fatalf("%s = %q (err %v), want %q", a.Name, data, err, a.Text)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "cli-generic.txt")); err != nil {
		t.Fatalf("generic table not written: %v", err)
	}

	data, err := os.ReadFile(filepath.Join(out, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "Reproduction run: mode=quick seed=7 at ") || lines[1] != "" {
		t.Fatalf("summary header = %q", lines[:2])
	}
	if lines[2] != "rendered line" || !strings.HasPrefix(lines[3], "timing cli-rendered: ") {
		t.Fatalf("first member's summary = %q", lines[2:4])
	}
	var timings []string
	for _, l := range lines {
		if strings.HasPrefix(l, "timing ") {
			timings = append(timings, l)
		}
	}
	if len(timings) != 2 || !strings.HasPrefix(timings[1], "timing cli-generic: ") ||
		!strings.HasSuffix(timings[1], " on 1 worker(s)") || lines[len(lines)-1] != timings[1] {
		t.Fatalf("timing lines = %q, want one per member, each after its summary", timings)
	}
}
