package main

import (
	"fmt"
	"testing"

	"repro/cluster"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// probeCluster16 builds the clean 16-target jaguar machine the probes use.
func probeCluster16(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Preset("jaguar", cluster.Config{Seed: 42, NumOSTs: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// TestProbeSinglePinned pins probe 1 on a single target: the aggregate
// bandwidths of four concurrent streams at two sizes, with and without the
// flush, so a change to the prober's op sequence that moves an event shows
// up as a different number. Four streams' summed client cap exceeds
// jaguar's disk rate, so the cache fills faster than it drains and the
// flush adds time: the flush column reads lower.
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
		got := probeStreams(probeCluster16(t), 4, tc.mb*pfs.MB, tc.flush)
		if got != tc.want {
			t.Errorf("probeStreams(4, %gMB, flush=%v) = %v, want %v", tc.mb, tc.flush, got, tc.want)
		}
	}
}

// TestCreateStormPinned pins probe 3: 256 openers each create and close a
// file at once, queueing at the metadata server.
func TestCreateStormPinned(t *testing.T) {
	c := probeCluster16(t)
	fs, k := c.FileSystem(), c.Kernel()
	var last simkernel.Time
	for i := 0; i < 256; i++ {
		k.SpawnCont(&opener{fs: fs, name: fmt.Sprintf("probe.%d", i), ost: i % 16, last: &last})
	}
	k.Run()
	if got, want := last.Seconds(), 0.139495891; got != want {
		t.Errorf("storm completion = %v s, want %v", got, want)
	}
	if got, want := fs.MDS.Stats.MaxQueue, 240; got != want {
		t.Errorf("MDS queue peak = %d, want %d", got, want)
	}
	if got, want := fs.MDS.Stats.OpsServed, 512; got != want {
		t.Errorf("MDS ops served = %d, want %d", got, want)
	}
}
