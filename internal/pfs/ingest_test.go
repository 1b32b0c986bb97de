package pfs

import (
	"testing"

	"repro/internal/simkernel"
)

func TestIngestFactorSlowsCacheAbsorbedWrite(t *testing.T) {
	cfg := flatConfig() // clientCap 50, ingest 400, disk 100
	k := simkernel.New()
	fs := MustNew(k, cfg)
	fs.OST(0).SetIngestFactor(0.5) // per-stream cap now effectively 25
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 500, nil),
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.Run()
	k.Shutdown()
	almostT(t, doneAt, 20.0, 1e-6, "halved ingest doubles a cache-absorbed write")
}

func TestIngestFactorClamps(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	fs.OST(0).SetIngestFactor(7)
	if got := fs.OST(0).IngestFactor(); got != 1 {
		t.Fatalf("ingest factor = %v, want clamp to 1", got)
	}
	fs.OST(0).SetIngestFactor(-1)
	if got := fs.OST(0).IngestFactor(); got != 1e-3 {
		t.Fatalf("ingest factor = %v, want clamp to 1e-3", got)
	}
	k.Shutdown()
}

func TestExternalStreamsShrinkEffectiveCache(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 200 // faster than disk
	cfg.CacheBytes = 1000
	run := func(ext int) float64 {
		k := simkernel.New()
		fs := MustNew(k, cfg)
		fs.OST(0).SetExternalStreams(ext)
		var doneAt float64
		k.SpawnCont(run(
			ostWrite(fs.OST(0), 900, nil),
			do(func() { doneAt = k.Now().Seconds() }),
		))
		k.Run()
		k.Shutdown()
		return doneAt
	}
	// Clean: 900 < 1000 cache, absorbed at 200 B/s → 4.5s.
	clean := run(0)
	almostT(t, clean, 4.5, 1e-6, "clean cache-absorbed write")
	// One external stream: effective cache 500; the second half of the
	// write throttles toward the (shared, degraded) disk rate — strictly
	// slower than clean.
	busy := run(1)
	if busy <= clean*1.5 {
		t.Fatalf("external stream should slow a cache-absorbed write: %v vs %v", busy, clean)
	}
}

func TestIngestFactorMidFlight(t *testing.T) {
	cfg := flatConfig()
	k := simkernel.New()
	fs := MustNew(k, cfg)
	var doneAt float64
	k.SpawnCont(run(
		ostWrite(fs.OST(0), 1000, nil), // 20s at rate 50
		do(func() { doneAt = k.Now().Seconds() }),
	))
	k.AfterSeconds(10, func() { fs.OST(0).SetIngestFactor(0.25) })
	k.Run()
	k.Shutdown()
	// 500 bytes in 10s, remaining 500 at 12.5 B/s → 40 more seconds.
	almostT(t, doneAt, 50.0, 0.3, "mid-flight ingest degradation")
}
