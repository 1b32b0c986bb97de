package main

import (
	"strings"
	"testing"

	"repro/internal/machines"
	"repro/internal/pfs"
)

// TestProbeSinglePinned pins probe 1 on a single target: the aggregate
// bandwidths of four concurrent IOR streams at two sizes, with and without
// the flush, so a change to the IOR writer's op sequence that moves an
// event shows up as a different number. Four streams' summed client cap
// exceeds jaguar's disk rate, so the cache fills faster than it drains and
// the flush adds time: the flush column reads lower.
func TestProbeSinglePinned(t *testing.T) {
	cases := []struct {
		mb    float64
		flush bool
		want  float64
	}{
		{1, false, 2.0782586544850096e+08},
		{1, true, 1.641150722468738e+08},
		{128, false, 2.150725124555244e+08},
		{128, true, 1.7721053456232566e+08},
	}
	for _, tc := range cases {
		res, err := oneTarget("jaguar", 42, 4, tc.mb*pfs.MB, tc.flush)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.AggregateBW; got != tc.want {
			t.Errorf("oneTarget(4, %gMB, flush=%v) = %v, want %v", tc.mb, tc.flush, got, tc.want)
		}
	}
}

// TestCreateStormPinned pins probe 3: 256 openers each create and close a
// file at once, queueing at the metadata server.
func TestCreateStormPinned(t *testing.T) {
	storm, ops, err := createStorm("jaguar", 42)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := storm.Elapsed, 0.139495891; got != want {
		t.Errorf("storm completion = %v s, want %v", got, want)
	}
	if got, want := storm.QueuePeak, 240; got != want {
		t.Errorf("MDS queue peak = %d, want %d", got, want)
	}
	if got, want := ops, 512; got != want {
		t.Errorf("MDS ops served = %d, want %d", got, want)
	}
}

// TestInspectEveryPreset runs every probe on every machine preset: each
// must finish without error, and the create storm must serve two metadata
// operations (create and close) per file.
func TestInspectEveryPreset(t *testing.T) {
	for _, name := range machines.Names() {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if err := inspect(&out, name, 42); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "ops served: 512\n") {
				t.Errorf("probe 3 did not serve 512 ops:\n%s", out.String())
			}
		})
	}
}
