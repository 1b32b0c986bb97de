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
// also takes -set overrides. It is the one-name case of the suite's run
// loop, so `repro -scenario fig1` writes the same fig1.txt as the suite:
//
//	repro -scenario fig1 -set osts=32 -set samples=4
//	repro -scenario examples/custom.json -set procs=32
//
// Campaigns run on a replica worker pool (-parallel, default all cores) with
// results bit-identical to a sequential run (-parallel 1). -trace captures
// an activity trace of one replica; -cpuprofile and -memprofile write pprof
// profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/scenario"
)

// tool names the command in its messages.
const tool = "repro"

// multiFlag collects a repeatable string flag (-set key=value ...).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// options holds the parsed flag values.
type options struct {
	scenario      string
	sets          multiFlag
	mode          string
	out           string
	seed          int64
	parallel      int
	trace         bool
	traceInterval float64
	tracePoint    string
	traceSample   int
	cpuProfile    string
	memProfile    string
}

// parseFlags registers the command's flags on flag.CommandLine and parses
// the command line.
func parseFlags() *options {
	o := &options{}
	flag.StringVar(&o.scenario, "scenario", "",
		"run a scenario: a registered name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	flag.Var(&o.sets, "set", "override a spec field or axis, key=value (repeatable)")
	flag.StringVar(&o.mode, "mode", "quick", "preset mode for registered scenarios: quick | full")
	flag.StringVar(&o.out, "out", "results", "output directory (empty = stdout)")
	flag.Int64Var(&o.seed, "seed", 42, "master seed")
	flag.IntVar(&o.parallel, "parallel", 0, "replica workers (0 = all cores, 1 = sequential)")
	flag.BoolVar(&o.trace, "trace", false, "capture an activity trace of one replica")
	flag.Float64Var(&o.traceInterval, "trace-interval", 1, "trace sampling interval in simulated seconds")
	flag.StringVar(&o.tracePoint, "trace-point", "", "grid-point label to trace (default: first point)")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "sample index to trace")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	return o
}

func main() {
	o := parseFlags()
	stopProf, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fatal(err)
	}
	if o.scenario != "" {
		err = o.run([]string{o.scenario}, nil)
	} else {
		err = o.run(experiments.PaperSuite, experiments.Fig7Artifact)
	}
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, tool+":", err)
	os.Exit(1)
}

// run runs the named scenarios in order, every one with the same run
// options. Each name is a registered definition, which renders its
// canonical tables and figures, or a JSON spec file, which renders the
// generic per-point summary. Each run's artifacts go to -out as files, or
// all to stdout when -out is empty; its summary lines go to stdout and its
// wall-clock timing to stderr. reduce, if non-nil, then turns the runs
// into artifacts that span several of them. With -out set, summary.txt
// collects a header and every summary and timing line.
func (o *options) run(names []string, reduce func([]*scenario.Result) ([]scenario.Artifact, error)) error {
	if len(o.sets) > 0 && o.scenario == "" {
		return fmt.Errorf("-set %s needs -scenario: overrides apply to one named scenario", o.sets[0])
	}
	ropt := scenario.RunOptions{Seed: o.seed, Parallel: o.parallel}
	if o.trace {
		ropt.Trace = &scenario.TraceOptions{
			IntervalSeconds: o.traceInterval,
			Point:           o.tracePoint,
			Sample:          o.traceSample,
		}
	}
	workers := o.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	summary := []string{fmt.Sprintf("Reproduction run: mode=%s seed=%d at %s\n", o.mode, o.seed, profiling.Timestamp())}
	var results []*scenario.Result
	for _, name := range names {
		sw := profiling.StartStopwatch()
		res, artifacts, lines, err := o.runOne(name, ropt)
		if err != nil {
			return err
		}
		timing := fmt.Sprintf("timing %s: %.2fs on %d worker(s)", name, sw.Elapsed().Seconds(), workers)
		if err := o.emit(artifacts); err != nil {
			return err
		}
		for _, line := range lines {
			fmt.Println(line)
		}
		fmt.Fprintln(os.Stderr, timing)
		summary = append(append(summary, lines...), timing)
		results = append(results, res)
	}
	if reduce != nil {
		artifacts, err := reduce(results)
		if err != nil {
			return err
		}
		if err := o.emit(artifacts); err != nil {
			return err
		}
	}
	if o.out == "" {
		return nil
	}
	return o.emit([]scenario.Artifact{{Name: "summary.txt", Text: strings.Join(summary, "\n") + "\n"}})
}

// runOne loads one scenario, applies the -set overrides, runs it and
// renders its artifacts and summary lines.
func (o *options) runOne(name string, ropt scenario.RunOptions) (*scenario.Result, []scenario.Artifact, []string, error) {
	s, def, err := scenario.Load(name, o.mode)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, assignment := range o.sets {
		if err := scenario.ApplySet(&s, assignment); err != nil {
			return nil, nil, nil, err
		}
	}
	res, err := scenario.Run(s, ropt)
	if err != nil {
		return nil, nil, nil, err
	}

	var artifacts []scenario.Artifact
	var summary []string
	if def != nil && def.Render != nil {
		artifacts, summary, err = def.Render(res, ropt)
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		tbl := res.Table()
		artifacts = []scenario.Artifact{{Name: artifactName(s.Name) + ".txt", Text: tbl.Render()}}
		summary = res.Summary()
	}
	if res.Trace != nil {
		artifacts = append(artifacts, scenario.Artifact{
			Name: artifactName(s.Name) + ".trace.txt",
			Text: res.Trace.Render(),
		})
	}
	return res, artifacts, summary, nil
}

// emit writes artifacts under -out, or prints them when -out is empty.
func (o *options) emit(artifacts []scenario.Artifact) error {
	if o.out == "" {
		for _, a := range artifacts {
			fmt.Printf("== %s ==\n%s\n", a.Name, a.Text)
		}
		return nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for _, a := range artifacts {
		path := filepath.Join(o.out, a.Name)
		if err := os.WriteFile(path, []byte(a.Text), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s\n", tool, path)
	}
	return nil
}

// artifactName flattens a scenario name ("eval/gtc") into a file stem.
func artifactName(name string) string {
	return strings.ReplaceAll(name, "/", "-")
}
