package main

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// tinyWorkload is a quick-mode spec that renders two artifacts in a few
// milliseconds.
func tinyWorkload() *Workload {
	return &Workload{Name: "tiny", Mode: "quick", Scenario: "table1", Sets: []string{"samples=4"}}
}

// TestWorkloadDigestsIndependentOfWorkers runs the tiny workload at 1 and 2
// workers, the second traced, and demands identical artifacts; then it pins
// the digests, tampers with one, and expects failed_frac = 1/N.
func TestWorkloadDigestsIndependentOfWorkers(t *testing.T) {
	w := tinyWorkload()
	seq, err := runWorkload(w, 42, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(t.TempDir(), "cpu.pprof")
	par, err := runWorkload(w, 42, 2, profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Digests) != 2 || !maps.Equal(seq.Digests, par.Digests) {
		t.Fatalf("digests differ between 1 and 2 workers:\n%v\n%v", seq.Digests, par.Digests)
	}
	if par.Replicas == 0 || seq.Replicas != 0 {
		t.Errorf("Replicas = %d traced, %d untraced; want >0 and 0", par.Replicas, seq.Replicas)
	}
	if seq.WallS <= 0 || seq.RunS <= 0 || seq.AllocBytes <= 0 || seq.BytesWritten <= 0 || len(seq.SetupS) != setupReps {
		t.Errorf("implausible record %+v", seq)
	}
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(data); err != nil {
		t.Fatal(err)
	}

	w.Digests = maps.Clone(seq.Digests)
	r := &workloadResult{w: w}
	if !r.add(par, nil, true) || r.failed != 0 {
		t.Fatalf("pinned digests: failed %d of %d", r.failed, r.attempted)
	}
	w.Digests["fig2.txt"] = "tampered"
	r = &workloadResult{w: w, runs: []*runRecord{par}}
	r.add(par, nil, true)
	rep := buildReport(&config{}, Header{}, []*workloadResult{r})
	if got := rep.Rows[0]; got.Metric != failedFrac || got.Value != 0.5 || *got.Pass {
		t.Errorf("tampered pin: row %+v, want failed_frac 0.5 failing", got)
	}

	// Away from the pinned seed, runs are checked against each other.
	r = &workloadResult{w: w}
	r.add(seq, nil, false)
	r.add(par, nil, false)
	if r.failed != 0 {
		t.Errorf("unpinned seed: %d of %d artifacts failed", r.failed, r.attempted)
	}
}

func TestTimeSetups(t *testing.T) {
	d, err := timeSetups(tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != setupReps || summarize(d).Median <= 0 {
		t.Errorf("%d set-up timings with median %g, want %d positive", len(d), summarize(d).Median, setupReps)
	}
	bad := tinyWorkload()
	bad.Sets = []string{"no-such-field=1"}
	if _, err := timeSetups(bad); err == nil {
		t.Error("a bad override passed set-up")
	}
}

func TestVerifyNamesEachFailure(t *testing.T) {
	pins := map[string]string{"a.txt": "1", "b.txt": "2", "c.txt": "3"}
	got := map[string]string{"a.txt": "1", "b.txt": "9"}
	bad := verify(pins, pins, got)
	want := []string{"b.txt: sha256 9, want 2", "c.txt: artifact missing"}
	if len(bad) != len(want) || bad[0] != want[0] || bad[1] != want[1] {
		t.Errorf("verify = %q, want %q", bad, want)
	}
}
