// Pixie3D campaign: run the paper's Figure 5(b) comparison at reduced scale
// — the Pixie3D large data model (128 MB/process) written through the
// MPI-IO baseline and through adaptive IO, on a busy simulated Jaguar,
// several output steps each, then print the side-by-side outcome.
//
//	go run ./examples/pixie3d
package main

import (
	"fmt"
	"log"

	"repro/adios"
	"repro/cluster"
	"repro/internal/simkernel"
	"repro/internal/workloads"
	"repro/metrics"
)

const (
	ranks    = 256
	numOSTs  = 64
	mpiOSTs  = 20 // stands in for the 160-of-512 single-file limit
	steps    = 3
	seedBase = 11
)

func main() {
	fmt.Println("== Pixie3D large (128 MB/process) — MPI-IO vs adaptive IO ==")
	fmt.Printf("ranks=%d, machine=%d OSTs, MPI limited to %d targets\n\n", ranks, numOSTs, mpiOSTs)

	mpiTimes := campaign(adios.MethodMPI)
	adaTimes := campaign(adios.MethodAdaptive)

	var tbl metrics.Table
	tbl.Title = "Per-step total write time (seconds)"
	tbl.Header = []string{"step", "MPI-IO", "ADAPTIVE", "speedup"}
	for i := range mpiTimes {
		tbl.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.2f", mpiTimes[i]),
			fmt.Sprintf("%.2f", adaTimes[i]),
			fmt.Sprintf("%.2fx", mpiTimes[i]/adaTimes[i]))
	}
	fmt.Println(tbl.Render())

	m := metrics.Summarize(mpiTimes)
	a := metrics.Summarize(adaTimes)
	fmt.Printf("MPI-IO   : mean %.2fs  stddev %.2fs\n", m.Mean, m.StdDev)
	fmt.Printf("ADAPTIVE : mean %.2fs  stddev %.2fs\n", a.Mean, a.StdDev)
	fmt.Printf("\nadaptive is %.2fx faster on average with %.1fx lower variability\n",
		m.Mean/a.Mean, safeRatio(m.StdDev, a.StdDev))
}

// campaign runs `steps` Pixie3D output steps through one method and
// returns the per-step total write times.
func campaign(method adios.Method) []float64 {
	c := cluster.Jaguar(cluster.Config{Seed: seedBase, NumOSTs: numOSTs, ProductionNoise: true})
	defer c.Shutdown()
	w := c.NewWorld(ranks)

	opts := adios.Options{Method: method}
	if method == adios.MethodMPI {
		opts.OSTs = firstN(mpiOSTs)
	}
	io, err := adios.NewIO(c, w, opts)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, steps)
	for s := range names {
		names[s] = fmt.Sprintf("pixie3d.%04d", s)
	}
	times := make([]float64, 0, steps)
	join := w.LaunchCont(func(i int) cluster.RankCont {
		return &pixieRank{io: io, names: names, times: &times}
	})
	c.RunUntilDone(join)
	return times
}

// pixieRank is one Pixie3D rank: `steps` times, compute for a while, then
// write one output step. Rank 0 records each step's total write time.
type pixieRank struct {
	pc, step int
	io       *adios.IO
	names    []string // per-step output names
	times    *[]float64
	cc       adios.CloseCont
}

func (m *pixieRank) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.step == steps {
				return true
			}
			// The simulation computes for a while between outputs (the
			// paper's codes write every 15–30 minutes; 30s keeps the
			// example fast while letting the machine's load drift).
			m.pc = 1
			c.SleepSeconds(30)
			return false
		case 1:
			f := m.io.Open(r, m.names[m.step])
			f.WriteData(workloads.Pixie3D(r.Rank(), workloads.Pixie3DLarge))
			f.BeginCloseCont(&m.cc)
			m.pc = 2
		default:
			if !m.cc.Step(c) {
				return false
			}
			res, err := m.cc.Result()
			if err != nil {
				log.Fatal(err)
			}
			if r.Rank() == 0 {
				*m.times = append(*m.times, res.Elapsed)
			}
			m.step++
			m.pc = 0
		}
	}
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
