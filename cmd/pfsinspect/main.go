// Command pfsinspect characterises a simulated machine preset the way a
// storage engineer would probe a real system: the cache-absorption boundary
// under enough streams to outrun a target's disk, the per-target contention
// curve, metadata service, and the effect of background noise. Useful for
// reviewing (or re-deriving) the calibration constants in internal/machines
// against the paper's figures. The probes run the simulator's own
// workloads: IOR for bandwidth and the scenario open storm for metadata.
//
// Usage:
//
//	pfsinspect [-machine jaguar] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cluster"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/metrics"
)

func main() {
	machine := flag.String("machine", "jaguar", "jaguar | franklin | xtp | intrepid")
	seed := flag.Int64("seed", 42, "master seed")
	flag.Parse()
	if err := inspect(os.Stdout, *machine, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pfsinspect:", err)
		os.Exit(1)
	}
}

// inspect prints the machine's storage parameters and the four probes'
// results to w.
func inspect(w io.Writer, machine string, seed int64) error {
	full, err := cluster.Preset(machine, cluster.Config{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== %s ==\n", full.Name())
	fmt.Fprintf(w, "storage targets: %d (experiments use %d)\n",
		full.NumOSTs(), full.ExperimentOSTs())
	cfg := full.FileSystem().Cfg
	fmt.Fprintf(w, "per-target disk: %s   effective cache: %s   ingest: %s\n",
		metrics.FormatBytesPerSec(cfg.DiskBW), metrics.FormatBytes(cfg.CacheBytes),
		metrics.FormatBytesPerSec(cfg.IngestBW))
	fmt.Fprintf(w, "client stream cap: %s   single-file stripe limit: %d targets\n\n",
		metrics.FormatBytesPerSec(cfg.ClientCap), cfg.MaxStripeCount)
	full.Shutdown()

	// --- Probe 1: write bandwidth vs size (cache boundary). One stream is
	// capped below the disk rate, so enough concurrent streams on one
	// target that their summed cap exceeds it fill the cache, and a flush
	// then waits for the disk.
	streams := int(cfg.DiskBW/cfg.ClientCap) + 1
	fmt.Fprintf(w, "probe 1: write bandwidth vs size, %d concurrent streams on one target (clean system)\n", streams)
	t1 := metrics.Table{Header: []string{"size/stream", "aggregate write() BW", "aggregate write+flush BW"}}
	for _, mb := range []float64{1, 8, 32, 128, 512} {
		write, err := oneTarget(machine, seed, streams, mb*pfs.MB, false)
		if err != nil {
			return err
		}
		flush, err := oneTarget(machine, seed, streams, mb*pfs.MB, true)
		if err != nil {
			return err
		}
		t1.AddRow(fmt.Sprintf("%gMB", mb),
			metrics.FormatBytesPerSec(write.AggregateBW), metrics.FormatBytesPerSec(flush.AggregateBW))
	}
	fmt.Fprintln(w, t1.Render())

	// --- Probe 2: contention curve (aggregate per-target BW vs writers).
	fmt.Fprintln(w, "probe 2: per-target aggregate bandwidth vs concurrent writers (128MB each)")
	t2 := metrics.Table{Header: []string{"writers/target", "aggregate/target", "per-writer"}}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		res, err := oneTarget(machine, seed, n, 128*pfs.MB, false)
		if err != nil {
			return err
		}
		t2.AddRow(fmt.Sprintf("%d", n),
			metrics.FormatBytesPerSec(res.AggregateBW),
			metrics.FormatBytesPerSec(res.MeanPerWriterBW()))
	}
	fmt.Fprintln(w, t2.Render())

	// --- Probe 3: metadata service under an open storm.
	fmt.Fprintln(w, "probe 3: metadata create storm (256 simultaneous creates)")
	storm, ops, err := createStorm(machine, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  storm completion: %.3fs   MDS queue peak: %d   ops served: %d\n\n",
		storm.Elapsed, storm.QueuePeak, ops)

	// --- Probe 4: noise footprint — repeated one-writer-per-target tests.
	fmt.Fprintln(w, "probe 4: background-noise footprint (16 hourly-style tests, 64MB/writer)")
	var bws, imbs []float64
	for i := 0; i < 16; i++ {
		c, err := cluster.Preset(machine, cluster.Config{
			Seed: seed + int64(i)*997, NumOSTs: 16, ProductionNoise: true,
		})
		if err != nil {
			return err
		}
		res, err := ior.Execute(c.FileSystem(), ior.Config{
			Writers: 16, BytesPerWriter: 64 * pfs.MB,
		})
		c.Shutdown()
		if err != nil {
			return err
		}
		bws = append(bws, res.AggregateBW/pfs.MB)
		imbs = append(imbs, res.ImbalanceFactor)
	}
	bsum := metrics.Summarize(bws)
	isum := metrics.Summarize(imbs)
	fmt.Fprintf(w, "  bandwidth: mean %.0f MB/s  CoV %.0f%%\n", bsum.Mean, bsum.CoVPercent())
	fmt.Fprintf(w, "  imbalance: mean %.2f  max %.2f\n", isum.Mean, isum.Max)
	return nil
}

// probeCluster builds the clean 16-target machine probes 1 to 3 run on.
func probeCluster(machine string, seed int64) (*cluster.Cluster, error) {
	return cluster.Preset(machine, cluster.Config{Seed: seed, NumOSTs: 16})
}

// oneTarget runs IOR with the given writers on target 0 of a fresh probe
// machine, each writing bytes (and, when flush is set, flushing them) once
// every writer's file exists.
func oneTarget(machine string, seed int64, writers int, bytes float64, flush bool) (ior.Result, error) {
	c, err := probeCluster(machine, seed)
	if err != nil {
		return ior.Result{}, err
	}
	defer c.Shutdown()
	return ior.Execute(c.FileSystem(), ior.Config{
		Writers: writers, OSTs: []int{0}, BytesPerWriter: bytes, Flush: flush,
	})
}

// createStorm runs the open storm of 256 simultaneous creates on a fresh
// probe machine and returns its sample and the metadata operations served.
func createStorm(machine string, seed int64) (scenario.Sample, int, error) {
	c, err := probeCluster(machine, seed)
	if err != nil {
		return scenario.Sample{}, 0, err
	}
	defer c.Shutdown()
	storm, err := scenario.RunOn(c, scenario.Scenario{Name: "create-storm", Machine: machine, NumOSTs: 16,
		NoNoise: true, Samples: 1, Workload: scenario.Workload{Kind: scenario.KindOpenStorm, Writers: 256}})
	return storm, c.FileSystem().MDS.Stats.OpsServed, err
}
