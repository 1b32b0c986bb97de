// Package scenariocli is the shared -scenario flag wiring for the CLIs:
// one place registers the common flags (-scenario, -set, -mode, -out,
// -seed, -parallel, -trace, -cpuprofile, -memprofile), loads a registered
// or file-based spec (or an ordered suite of them), applies overrides,
// runs and renders each, and writes the artifacts and a summary.
// Every command gets identical behaviour; the per-command mains keep only
// their bespoke surfaces.
package scenariocli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/profiling"
	"repro/internal/scenario"
)

// multiFlag collects a repeatable string flag (-set key=value ...).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// Flags holds the shared flag values after parsing.
type Flags struct {
	Scenario      string
	Sets          multiFlag
	Mode          string
	Out           string
	Seed          int64
	Parallel      int
	Trace         bool
	TraceInterval float64
	TracePoint    string
	TraceSample   int
	CPUProfile    string
	MemProfile    string
}

// Register installs the shared flags on a flag set (usually
// flag.CommandLine) and returns the value holder to read after Parse.
func Register(fs *flag.FlagSet, defaultOut string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Scenario, "scenario", "",
		"run a scenario: a registered name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	fs.Var(&f.Sets, "set", "override a spec field or axis, key=value (repeatable)")
	fs.StringVar(&f.Mode, "mode", "quick", "preset mode for registered scenarios: quick | full")
	fs.StringVar(&f.Out, "out", defaultOut, "output directory (empty = stdout)")
	fs.Int64Var(&f.Seed, "seed", 42, "master seed")
	fs.IntVar(&f.Parallel, "parallel", 0, "replica workers (0 = all cores, 1 = sequential)")
	fs.BoolVar(&f.Trace, "trace", false, "capture an activity trace of one replica")
	fs.Float64Var(&f.TraceInterval, "trace-interval", 1, "trace sampling interval in simulated seconds")
	fs.StringVar(&f.TracePoint, "trace-point", "", "grid-point label to trace (default: first point)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "sample index to trace")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// ScenarioRequested reports whether -scenario was given.
func (f *Flags) ScenarioRequested() bool { return f.Scenario != "" }

// StartProfiling starts the -cpuprofile/-memprofile capture; call the
// returned stop function on exit.
func (f *Flags) StartProfiling() (func() error, error) {
	return profiling.Start(f.CPUProfile, f.MemProfile)
}

// RunOptions maps the flags onto scenario run options.
func (f *Flags) RunOptions() scenario.RunOptions {
	opt := scenario.RunOptions{Seed: f.Seed, Parallel: f.Parallel}
	if f.Trace {
		opt.Trace = &scenario.TraceOptions{
			IntervalSeconds: f.TraceInterval,
			Point:           f.TracePoint,
			Sample:          f.TraceSample,
		}
	}
	return opt
}

// RunScenario runs -scenario: the one-name case of Run.
func (f *Flags) RunScenario(tool string) error {
	return f.Run(tool, []string{f.Scenario}, nil)
}

// Run runs the named scenarios in order, every one with the same run
// options. Each name is a registered definition, which renders its
// canonical tables and figures, or a JSON spec file, which renders the
// generic per-point summary. Each run's artifacts go to -out as files, or
// all to stdout when -out is empty; its summary lines go to stdout and its
// wall-clock timing to stderr. reduce, if non-nil, then turns the runs
// into artifacts that span several of them. With -out set, summary.txt
// collects a header and every summary and timing line.
func (f *Flags) Run(tool string, names []string, reduce func([]*scenario.Result) ([]scenario.Artifact, error)) error {
	if len(f.Sets) > 0 && !f.ScenarioRequested() {
		return fmt.Errorf("-set %s needs -scenario: overrides apply to one named scenario", f.Sets[0])
	}
	ropt := f.RunOptions()
	workers := f.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	summary := []string{fmt.Sprintf("Reproduction run: mode=%s seed=%d at %s\n", f.Mode, f.Seed, profiling.Timestamp())}
	var results []*scenario.Result
	for _, name := range names {
		sw := profiling.StartStopwatch()
		res, artifacts, lines, err := f.runOne(name, ropt)
		if err != nil {
			return err
		}
		timing := fmt.Sprintf("timing %s: %.2fs on %d worker(s)", name, sw.Elapsed().Seconds(), workers)
		if err := f.emit(tool, artifacts); err != nil {
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
		if err := f.emit(tool, artifacts); err != nil {
			return err
		}
	}
	if f.Out == "" {
		return nil
	}
	return f.emit(tool, []scenario.Artifact{{Name: "summary.txt", Text: strings.Join(summary, "\n") + "\n"}})
}

// runOne loads one scenario, applies the -set overrides, runs it and
// renders its artifacts and summary lines.
func (f *Flags) runOne(name string, ropt scenario.RunOptions) (*scenario.Result, []scenario.Artifact, []string, error) {
	s, def, err := scenario.Load(name, f.Mode)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, assignment := range f.Sets {
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
func (f *Flags) emit(tool string, artifacts []scenario.Artifact) error {
	if f.Out == "" {
		for _, a := range artifacts {
			fmt.Printf("== %s ==\n%s\n", a.Name, a.Text)
		}
		return nil
	}
	if err := os.MkdirAll(f.Out, 0o755); err != nil {
		return err
	}
	for _, a := range artifacts {
		path := filepath.Join(f.Out, a.Name)
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
