// Timeline: trace the storage system while an adaptive output step runs
// under artificial interference, then render what happened — which targets
// were busy, which were degraded, and how aggregate throughput evolved.
// This is the paper's Figure 4 organisation made visible at runtime: the
// interfered targets stay dark in the slowness map while the adaptive
// method's activity migrates to the clean ones.
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"

	"repro/adios"
	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/workloads"
	"repro/metrics"
)

func main() {
	c := cluster.Jaguar(cluster.Config{Seed: 41, NumOSTs: 12, ProductionNoise: true})
	defer c.Shutdown()

	// The paper's interference program scaled down: continuous writers on
	// the first 4 targets, on top of production background noise.
	c.StartArtificialInterference([]int{0, 1, 2, 3}, 3, 1<<28)

	tr := c.Trace(1.0)

	w := c.NewWorld(96)
	io, err := adios.NewIO(c, w, adios.Options{Method: adios.MethodAdaptive})
	if err != nil {
		log.Fatal(err)
	}
	large := func(rank int) iomethod.RankData {
		return workloads.Pixie3D(rank, workloads.Pixie3DLarge)
	}
	var out adios.StepOut
	join := w.LaunchCont(func(i int) cluster.RankCont {
		return &adios.WriteStep{IO: io, Step: "traced.step", PerRank: large, Out: &out}
	})
	c.RunUntilDone(join)
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	res := out.Result
	tr.Stop()

	fmt.Println("== adaptive IO under interference, traced ==")
	fmt.Printf("96 ranks x 128 MB through 12 targets (4 interfered): %.2fs, %s, %d adaptive writes\n\n",
		res.Elapsed, metrics.FormatBytesPerSec(res.AggregateBW()), res.AdaptiveWrites)
	fmt.Println(tr.RenderSlowness(64))
	fmt.Println(tr.RenderActivity(64))
}
