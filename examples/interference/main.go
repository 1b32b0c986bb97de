// Interference anatomy: watch external interference create the imbalance
// the paper measures. Runs repeated IOR-style tests (one writer per storage
// target) on a busy simulated Jaguar and prints, for each test, the
// bandwidth, the imbalance factor, and an ASCII profile of per-writer write
// times — the live version of the paper's Figure 3.
//
//	go run ./examples/interference
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/cluster"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/metrics"
)

const (
	numOSTs = 48
	tests   = 6
	gap     = 180.0 // seconds between tests, the paper's "3 minutes later"
	bytes   = 128 * pfs.MB
)

func main() {
	c := cluster.Jaguar(cluster.Config{Seed: 31, NumOSTs: numOSTs, ProductionNoise: true})
	defer c.Shutdown()
	fs := c.FileSystem()

	fmt.Println("== external interference, live (paper Figure 3) ==")
	fmt.Printf("%d writers, one per storage target, %s each, %d tests %.0fs apart\n\n",
		numOSTs, metrics.FormatBytes(bytes), tests, gap)

	var imbalances []float64
	for i := 0; i < tests; i++ {
		res, err := ior.Execute(fs, ior.Config{
			Writers:        numOSTs,
			BytesPerWriter: bytes,
			Mode:           ior.FilePerProcess,
			Job:            fs.RegisterJob(fmt.Sprintf("t%d", i)),
		})
		if err != nil {
			log.Fatal(err)
		}
		imbalances = append(imbalances, res.ImbalanceFactor)
		fmt.Printf("test %d @ t=%6.0fs   %8s   imbalance %.2f\n",
			i, c.Now(), metrics.FormatBytesPerSec(res.AggregateBW), res.ImbalanceFactor)
		fmt.Println(profile(res.WriterTimes))
		c.RunFor(time.Duration(gap * float64(time.Second)))
	}

	sum := metrics.Summarize(imbalances)
	fmt.Printf("imbalance across tests: avg %.2f  min %.2f  max %.2f\n", sum.Mean, sum.Min, sum.Max)
	fmt.Println("(the paper observed an overall average near 2, with tests as high as 3.44 —")
	fmt.Println(" and notes the slowest writer determines the whole operation's time)")
}

// profile draws per-writer write times as a compact strip: one character
// per writer, '.' for near-fastest through '#' for the slowest.
func profile(times []float64) string {
	sum := metrics.Summarize(times)
	if sum.Max == sum.Min {
		return strings.Repeat(".", len(times))
	}
	glyphs := []byte(".:-=+*%#")
	var b strings.Builder
	b.WriteString("  [")
	for _, t := range times {
		frac := (t - sum.Min) / (sum.Max - sum.Min)
		idx := int(frac * float64(len(glyphs)-1))
		b.WriteByte(glyphs[idx])
	}
	b.WriteString("]  '.'=fast '#'=slow")
	return b.String()
}
