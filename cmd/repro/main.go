// Command repro regenerates every table and figure of the paper in one run
// and writes the rendered artifacts to a results directory.
//
// By default it runs the paper suite: the registered scenarios fig1,
// table1, fig3, fig5-small, fig5-large, fig5-xl and fig6 in order, then
// reduces the Fig 5 and Fig 6 runs to Figure 7. Two presets:
//
//	repro -mode quick   — scaled-down grids (ratios preserved), seconds
//	repro -mode full    — the paper's configuration (512 OSTs, writer
//	                      counts to 16384, 40/469 samples)
//
// Artifacts land in -out (default ./results): one .txt per table/figure
// plus summary.txt with the headline comparisons and one timing line per
// suite member.
//
// A single experiment (or any custom spec) runs through -scenario, which
// also takes -set overrides:
//
//	repro -scenario fig1 -set osts=32 -set samples=4
//	repro -scenario examples/custom.json -set procs=32
//
// Campaigns run on a replica worker pool (-parallel, default all cores) with
// results bit-identical to a sequential run (-parallel 1).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/scenario/scenariocli"
)

func main() {
	cli := scenariocli.Register(flag.CommandLine, "results")
	flag.Parse()

	stopProf, err := cli.StartProfiling()
	if err != nil {
		fatal(err)
	}
	if cli.ScenarioRequested() {
		err = cli.RunScenario("repro")
	} else {
		err = cli.Run("repro", experiments.PaperSuite, experiments.Fig7Artifact)
	}
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
