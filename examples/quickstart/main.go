// Quickstart: write one output step through adaptive IO on a simulated
// Jaguar, inspect the result, and exercise the BP index — including
// persisting the real encoded global index to disk and reading it back.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/adios"
	"repro/cluster"
	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/metrics"
)

func main() {
	// A scaled-down Jaguar: 64 storage targets, production background
	// noise on, fully deterministic under the seed.
	c := cluster.Jaguar(cluster.Config{Seed: 7, NumOSTs: 64, ProductionNoise: true})
	defer c.Shutdown()

	const ranks = 256
	w := c.NewWorld(ranks)

	io, err := adios.NewIO(c, w, adios.Options{Method: adios.MethodAdaptive})
	if err != nil {
		log.Fatal(err)
	}

	// Each rank writes two 3-D double-precision arrays, 8 MB each,
	// declaring value-range characteristics for the index: the same
	// density range on every rank, a pressure range starting at the rank.
	shape := iomethod.NewShape(
		func(rank, v int) float64 { return float64(v * rank) },
		iomethod.VarSpec{Name: "density", Bytes: 8 << 20, Dims: []uint64{128, 128, 64}, Min: 0.1, Max: 2.5},
		iomethod.VarSpec{Name: "pressure", Bytes: 8 << 20, Dims: []uint64{128, 128, 64}, Min: 0, Max: 1},
	)
	var out adios.StepOut
	w.LaunchCont(func(i int) cluster.RankCont {
		return &adios.WriteStep{IO: io, Step: "restart.0001", PerRank: shape.Rank, Out: &out}
	})
	if _, err := c.Run(); err != nil || out.Err != nil {
		log.Fatal(errors.Join(err, out.Err))
	}
	result := out.Result

	fmt.Println("== adaptive IO quickstart ==")
	fmt.Printf("ranks:            %d writers over %d storage targets\n", ranks, c.NumOSTs())
	fmt.Printf("payload written:  %s across %d subfiles\n",
		metrics.FormatBytes(result.TotalBytes), result.Files)
	fmt.Printf("operation time:   %.2fs virtual\n", result.Elapsed)
	fmt.Printf("aggregate rate:   %s\n", metrics.FormatBytesPerSec(result.AggregateBW()))
	fmt.Printf("adaptive writes:  %d redirected to faster targets\n", result.AdaptiveWrites)

	times := metrics.Summarize(result.WriterTimes)
	fmt.Printf("per-writer time:  min %.2fs  mean %.2fs  max %.2fs (imbalance %.2f)\n",
		times.Min, times.Mean, times.Max, metrics.ImbalanceFactor(result.WriterTimes))

	// The index: find rank 42's pressure block by name, then by value.
	loc, ok := result.Index().Lookup("pressure", 42)
	if !ok {
		log.Fatal("index lookup failed")
	}
	fmt.Printf("index lookup:     pressure/rank42 -> %s @ offset %d (%s)\n",
		loc.File, loc.Entry.Offset, metrics.FormatBytes(float64(loc.Entry.Length)))

	hits := result.Index().FindByValue("pressure", 42.5, 42.6)
	fmt.Printf("value search:     pressure in [42.5,42.6] -> %d block(s)\n", len(hits))

	// Persist the real encoded global index and read it back — the bytes
	// on disk are the BP-style format the sub-coordinators write.
	enc, err := result.Index().Encode()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "restart.0001.gidx.bp")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	back, err := bp.DecodeGlobal(mustRead(path))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index round-trip: %d entries in %d locals via %s (%s on disk)\n",
		back.NumEntries(), len(back.Locals), path, metrics.FormatBytes(float64(len(enc))))
}

func mustRead(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return b
}
