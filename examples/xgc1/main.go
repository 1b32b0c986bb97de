// XGC1 under artificial interference: reproduce the paper's Section IV
// environment — the fusion code's 38 MB/process output while a separate
// program hammers 8 storage targets with 24 continuous 1 GB writers — and
// show how each transport copes.
//
//	go run ./examples/xgc1
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/adios"
	"repro/cluster"
	"repro/internal/workloads"
	"repro/metrics"
)

const (
	ranks   = 256
	numOSTs = 64
	mpiOSTs = 20
	seed    = 23
)

func main() {
	fmt.Println("== XGC1 (38 MB/process) under artificial interference ==")
	fmt.Println("interference: 24 processes continuously writing 1 GB chunks,")
	fmt.Println("three per storage target across 8 targets (paper Section IV)")
	fmt.Println()

	var tbl metrics.Table
	tbl.Header = []string{"method", "condition", "write time", "aggregate BW", "adaptive writes", "imbalance"}
	for _, method := range []adios.Method{adios.MethodMPI, adios.MethodAdaptive} {
		for _, interfere := range []bool{false, true} {
			res := run(method, interfere)
			cond := "base"
			if interfere {
				cond = "interference"
			}
			tbl.AddRow(string(method), cond,
				fmt.Sprintf("%.2fs", res.Elapsed),
				metrics.FormatBytesPerSec(res.AggregateBW()),
				fmt.Sprintf("%d", res.AdaptiveWrites),
				fmt.Sprintf("%.2f", metrics.ImbalanceFactor(res.WriterTimes)))
		}
	}
	fmt.Println(tbl.Render())
	fmt.Println("Note how the adaptive method drains the interfered targets' queues")
	fmt.Println("through the untouched ones: its interference penalty stays small,")
	fmt.Println("while the shared-file baseline is held hostage by its slowest stripe.")
}

func run(method adios.Method, interfere bool) *adios.StepResult {
	c := cluster.Jaguar(cluster.Config{Seed: seed, NumOSTs: numOSTs, ProductionNoise: true})
	defer c.Shutdown()
	if interfere {
		// The paper's exact program: defaults are 8 targets × 3 procs × 1 GB.
		c.StartArtificialInterference(nil, 0, 0)
	}
	w := c.NewWorld(ranks)
	opts := adios.Options{Method: method}
	if method == adios.MethodMPI {
		opts.OSTs = firstN(mpiOSTs)
	}
	io, err := adios.NewIO(c, w, opts)
	if err != nil {
		log.Fatal(err)
	}
	var out adios.StepOut
	w.LaunchCont(func(i int) cluster.RankCont {
		return &adios.WriteStep{IO: io, Step: "xgc1.restart", PerRank: workloads.XGC1, Out: &out}
	})
	if _, err := c.Run(); err != nil || out.Err != nil {
		log.Fatal(errors.Join(err, out.Err))
	}
	res := out.Result
	return res
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
