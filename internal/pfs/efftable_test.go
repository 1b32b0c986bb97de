package pfs

import (
	"math"
	"testing"

	"repro/internal/simkernel"
)

// effTableReplica runs one replica on fs: writers concurrent writes to
// OST 0 beside ext external streams, and a read of OST 0. It returns the
// largest stream count the replica's plans asked both tables for.
func effTableReplica(t *testing.T, k *simkernel.Kernel, fs *FileSystem, writers, ext int) int {
	t.Helper()
	fs.OST(0).SetExternalStreams(ext)
	for i := 0; i < writers; i++ {
		k.SpawnCont(run(ostWrite(fs.OST(0), float64(100*(i+1)), nil)))
	}
	var f *File
	var err error
	k.SpawnCont(run(
		create(fs, "shard", Layout{OSTs: []int{0}}, &f, &err),
		readAt(&f, 0, 64, &err),
	))
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return fs.OST(0).Stats.MaxConcurrency + ext
}

// checkEffTable asks that every entry of tab is c.Eval(n) bit for bit and
// that the table reaches at least maxStreams.
func checkEffTable(t *testing.T, name string, tab *effTable, c EffCurve, maxStreams int) {
	t.Helper()
	if len(tab.vals) <= maxStreams {
		t.Fatalf("%s table holds %d entries; the replica reached %d streams", name, len(tab.vals), maxStreams)
	}
	for n, v := range tab.vals {
		if want := c.Eval(n); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s table entry %d = %v, Eval = %v", name, n, v, want)
		}
	}
}

// TestEffTableMatchesEval checks the file system's curve tables against
// EffCurve.Eval over every stream count a replica reaches, and that a Reset
// to other curves re-arms them: the same table must then hold the new
// curves' values.
func TestEffTableMatchesEval(t *testing.T) {
	cfg := flatConfig()
	cfg.DiskEff = EffCurve{Alpha: 0.025, Beta: 1.05}
	cfg.NetEff = EffCurve{Alpha: 0.004, Beta: 1.1}
	k := simkernel.New()
	fs := MustNew(k, cfg)
	maxStreams := effTableReplica(t, k, fs, 40, 7)
	checkEffTable(t, "disk", &fs.eff.disk, cfg.DiskEff, maxStreams)
	checkEffTable(t, "net", &fs.eff.net, cfg.NetEff, maxStreams)

	cfg.DiskEff = EffCurve{Alpha: 0.0015, Beta: 1}
	cfg.NetEff = EffCurve{Alpha: 0.003, Beta: 0.9}
	k.Reset()
	if err := fs.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	maxStreams = effTableReplica(t, k, fs, 24, 3)
	checkEffTable(t, "disk after Reset", &fs.eff.disk, cfg.DiskEff, maxStreams)
	checkEffTable(t, "net after Reset", &fs.eff.net, cfg.NetEff, maxStreams)
}
