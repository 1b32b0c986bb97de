// Command pfsinspect characterises a simulated machine preset the way a
// storage engineer would probe a real system: single-stream bandwidth, the
// per-target contention curve, the cache-absorption boundary, metadata
// service, and the effect of background noise. Useful for reviewing (or
// re-deriving) the calibration constants in internal/machines against the
// paper's figures.
//
// Usage:
//
//	pfsinspect -machine jaguar [-seed 42]
//	pfsinspect -scenario my-spec.json        (run a declarative scenario)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cluster"
	_ "repro/internal/experiments" // register the named scenarios
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/scenario/scenariocli"
	"repro/internal/simkernel"
	"repro/metrics"
)

func main() {
	cli := scenariocli.Register(flag.CommandLine, "")
	machine := flag.String("machine", "jaguar", "jaguar | franklin | xtp | intrepid")
	flag.Parse()

	stopProf, err := cli.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfsinspect:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if cli.ScenarioRequested() {
		if err := cli.RunScenario("pfsinspect"); err != nil {
			fmt.Fprintln(os.Stderr, "pfsinspect:", err)
			os.Exit(1)
		}
		return
	}

	seed := &cli.Seed
	probeCluster := func(noise bool) *cluster.Cluster {
		c, err := cluster.Preset(*machine, cluster.Config{
			Seed: *seed, NumOSTs: 16, ProductionNoise: noise,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfsinspect:", err)
			os.Exit(1)
		}
		return c
	}

	full, err := cluster.Preset(*machine, cluster.Config{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfsinspect:", err)
		os.Exit(1)
	}
	fmt.Printf("== %s ==\n", full.Name())
	fmt.Printf("storage targets: %d (experiments use %d)\n",
		full.NumOSTs(), full.ExperimentOSTs())
	cfg := full.FileSystem().Cfg
	fmt.Printf("per-target disk: %s   effective cache: %s   ingest: %s\n",
		metrics.FormatBytesPerSec(cfg.DiskBW), metrics.FormatBytes(cfg.CacheBytes),
		metrics.FormatBytesPerSec(cfg.IngestBW))
	fmt.Printf("client stream cap: %s   single-file stripe limit: %d targets\n\n",
		metrics.FormatBytesPerSec(cfg.ClientCap), cfg.MaxStripeCount)
	full.Shutdown()

	// --- Probe 1: single-stream bandwidth vs write size (cache boundary).
	fmt.Println("probe 1: single-stream write bandwidth vs size (clean system)")
	t1 := metrics.Table{Header: []string{"size", "write() BW", "write+flush BW"}}
	for _, mb := range []float64{1, 8, 32, 128, 512} {
		c := probeCluster(false)
		wbw := probeSingle(c, mb*pfs.MB, false)
		c.Shutdown()
		c = probeCluster(false)
		fbw := probeSingle(c, mb*pfs.MB, true)
		c.Shutdown()
		t1.AddRow(fmt.Sprintf("%gMB", mb),
			metrics.FormatBytesPerSec(wbw), metrics.FormatBytesPerSec(fbw))
	}
	fmt.Println(t1.Render())

	// --- Probe 2: contention curve (aggregate per-target BW vs writers).
	fmt.Println("probe 2: per-target aggregate bandwidth vs concurrent writers (128MB each)")
	t2 := metrics.Table{Header: []string{"writers/target", "aggregate/target", "per-writer"}}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		c := probeCluster(false)
		res, err := ior.Execute(c.FileSystem(), ior.Config{
			Writers: n, OSTs: []int{0}, BytesPerWriter: 128 * pfs.MB,
		})
		c.Shutdown()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfsinspect:", err)
			os.Exit(1)
		}
		t2.AddRow(fmt.Sprintf("%d", n),
			metrics.FormatBytesPerSec(res.AggregateBW),
			metrics.FormatBytesPerSec(res.MeanPerWriterBW()))
	}
	fmt.Println(t2.Render())

	// --- Probe 3: metadata service under an open storm.
	fmt.Println("probe 3: metadata create storm (256 simultaneous creates)")
	{
		c := probeCluster(false)
		fs := c.FileSystem()
		k := c.Kernel()
		var last simkernel.Time
		for i := 0; i < 256; i++ {
			k.SpawnCont("opener", &opener{fs: fs, name: fmt.Sprintf("probe.%d", i), ost: i % 16, last: &last})
		}
		k.Run()
		fmt.Printf("  storm completion: %.3fs   MDS queue peak: %d   ops served: %d\n\n",
			last.Seconds(), fs.MDS.Stats.MaxQueue, fs.MDS.Stats.OpsServed)
		c.Shutdown()
	}

	// --- Probe 4: noise footprint — repeated one-writer-per-target tests.
	fmt.Println("probe 4: background-noise footprint (16 hourly-style tests, 64MB/writer)")
	var bws, imbs []float64
	for i := 0; i < 16; i++ {
		c, err := cluster.Preset(*machine, cluster.Config{
			Seed: *seed + int64(i)*997, NumOSTs: 16, ProductionNoise: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfsinspect:", err)
			os.Exit(1)
		}
		res, err := ior.Execute(c.FileSystem(), ior.Config{
			Writers: 16, BytesPerWriter: 64 * pfs.MB,
		})
		c.Shutdown()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfsinspect:", err)
			os.Exit(1)
		}
		bws = append(bws, res.AggregateBW/pfs.MB)
		imbs = append(imbs, res.ImbalanceFactor)
	}
	bsum := metrics.Summarize(bws)
	isum := metrics.Summarize(imbs)
	fmt.Printf("  bandwidth: mean %.0f MB/s  CoV %.0f%%\n", bsum.Mean, bsum.CoVPercent())
	fmt.Printf("  imbalance: mean %.2f  max %.2f\n", isum.Mean, isum.Max)
}

// opener is one process of the create storm: create a file, close it, and
// record the latest completion time.
type opener struct {
	pc      int
	fs      *pfs.FileSystem
	name    string
	ost     int
	last    *simkernel.Time
	create  pfs.CreateOp
	closeOp pfs.CloseOp
}

func (m *opener) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, m.name, pfs.Layout{OSTs: []int{m.ost}})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				panic(err)
			}
			m.closeOp.BeginClose(m.create.File())
			m.pc = 2
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			if c.Now() > *m.last {
				*m.last = c.Now()
			}
			return true
		}
	}
}

// probeSingle writes one block on target 0 and returns the bandwidth.
func probeSingle(c *cluster.Cluster, bytes float64, flush bool) float64 {
	p := &prober{fs: c.FileSystem(), bytes: int64(bytes), flush: flush}
	k := c.Kernel()
	k.SpawnCont("probe", p)
	k.Run()
	if p.dur <= 0 {
		return 0
	}
	return bytes / p.dur
}

// prober is probeSingle's process: create a file on target 0, time one
// write (and, when flush is set, the flush after it), then close.
type prober struct {
	pc      int
	fs      *pfs.FileSystem
	bytes   int64
	flush   bool
	start   float64
	dur     float64
	f       *pfs.File
	create  pfs.CreateOp
	write   pfs.WriteOp
	flushOp pfs.FlushOp
	closeOp pfs.CloseOp
}

func (m *prober) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, "probe", pfs.Layout{OSTs: []int{0}})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				panic(err)
			}
			m.f = m.create.File()
			m.start = c.Now().Seconds()
			m.write.BeginWrite(m.f, 0, m.bytes)
			m.pc = 2
		case 2:
			if !m.write.Step(c) {
				return false
			}
			m.pc = 4
			if m.flush {
				m.flushOp.BeginFlush(m.f)
				m.pc = 3
			}
		case 3:
			if !m.flushOp.Step(c) {
				return false
			}
			m.pc = 4
		case 4:
			m.dur = c.Now().Seconds() - m.start
			m.closeOp.BeginClose(m.f)
			m.pc = 5
		default:
			return m.closeOp.Step(c)
		}
	}
}
