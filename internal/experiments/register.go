package experiments

import (
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/workloads"
	"repro/metrics"
)

// PaperSuite is the ordered set of registered scenarios that regenerates
// the paper's tables and figures; Fig7Artifact reduces its evaluation runs
// to Figure 7.
var PaperSuite = []string{"fig1", "table1", "fig3", "fig5-small", "fig5-large", "fig5-xl", "fig6"}

// init publishes every experiment through the scenario registry: its
// builder at both modes and a renderer that rebuilds the canonical tables
// and figures from the generic Result. repro's suite, -scenario, the
// benchmarks and the goldens all run these definitions.
func init() {
	register("fig1", "Figure 1: internal-interference IOR grid (aggregate + per-writer bandwidth)",
		fig1, renderFig1)
	register("table1", "Table I + Figure 2: external-interference variability on three machines",
		func(quick bool) scenario.Scenario {
			if quick {
				return tableISamples(tableI(8), 60, 60, 40)
			}
			return tableI(1)
		}, renderTableI)
	register("fig3", "Figure 3: imbalanced concurrent writers (two headline tests + average imbalance)",
		fig3, renderFig3)
	evalDef := func(name, title string, gen workloads.Generator) {
		register(name, title,
			func(quick bool) scenario.Scenario { return eval(gen.Name, quick) },
			func(res *scenario.Result, opt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
				return renderEval(res, name, title)
			})
	}
	evalDef("fig5-small", "Figure 5(a): Pixie3D Small Data (2 MB/process)",
		workloads.Pixie3DGen(workloads.Pixie3DSmall))
	evalDef("fig5-large", "Figure 5(b): Pixie3D Large Data (128 MB/process)",
		workloads.Pixie3DGen(workloads.Pixie3DLarge))
	evalDef("fig5-xl", "Figure 5(c): Pixie3D Extra Large Data (1024 MB/process)",
		workloads.Pixie3DGen(workloads.Pixie3DXL))
	evalDef("fig6", "Figure 6: XGC1 IO Performance (38 MB/process)", workloads.XGC1Gen())
	register("jobmix-frontier", "Saturation frontier: heterogeneous job mix, static vs adaptive, 1→N concurrent jobs",
		jobMix, renderJobMix)
	register("failure-sweep", "Failure masking: scripted OST crash/rebuild under adaptive IO vs its work-shifting ablation",
		failureSweep, renderFailureSweep)
	register("metadata", "Metadata open-storm study (future-work extension)", metadata,
		func(res *scenario.Result, opt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
			md, err := metadataDemux(res)
			if err != nil {
				return nil, nil, err
			}
			return []scenario.Artifact{{Name: "metadata.txt", Text: md.Table.Render()}}, nil, nil
		})
}

// register publishes one experiment. Its spec exists in the two modes
// only: "quick" runs scaled-down grids whose per-target ratios (and so
// shapes) match the paper's, in minutes; "full" is the paper's
// configuration, in hours. Specs carry no seed — the CLI's -seed applies
// at run time — so one spec is reusable across seeds.
func register(name, description string, build func(quick bool) scenario.Scenario,
	render func(*scenario.Result, scenario.RunOptions) ([]scenario.Artifact, []string, error)) {
	scenario.Register(scenario.Definition{
		Name:        name,
		Description: description,
		Spec: func(mode string) (scenario.Scenario, error) {
			if mode != "quick" && mode != "full" {
				return scenario.Scenario{}, fmt.Errorf("unknown mode %q (want quick | full)", mode)
			}
			return build(mode == "quick"), nil
		},
		Render: render,
	})
}

func renderFig1(res *scenario.Result, ropt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := fig1Demux(res)
	if err != nil {
		return nil, nil, err
	}
	text := r.Aggregate.Render() + "\n" + r.PerWriter.Render()
	// The grid above is measured under production noise, as the paper's
	// was. The qualitative shape claims concern *internal* interference, so
	// they are validated against a noise-free run of the same spec.
	clean := res.Scenario
	clean.NoNoise = true
	clean.Samples = 2
	crun, err := scenario.Run(clean, scenario.RunOptions{Seed: ropt.Seed, Parallel: ropt.Parallel})
	if err != nil {
		return nil, nil, err
	}
	cres, err := fig1Demux(crun)
	if err != nil {
		return nil, nil, err
	}
	var summary []string
	if bad := Fig1ShapeChecks(cres); len(bad) > 0 {
		text += "\nshape-check (noise-free grid) violations:\n  " + strings.Join(bad, "\n  ") + "\n"
		summary = append(summary, fmt.Sprintf("Fig 1: %d shape violations (see fig1.txt)", len(bad)))
	} else {
		text += "\nshape-check: all Figure 1 qualitative claims hold on the noise-free grid\n"
		summary = append(summary, fmt.Sprintf("Fig 1: internal-interference shapes hold (%d grid points)",
			len(crun.Points)))
	}
	return []scenario.Artifact{{Name: "fig1.txt", Text: text}}, summary, nil
}

func renderTableI(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	t1, err := tableIDemux(res)
	if err != nil {
		return nil, nil, err
	}
	var b strings.Builder
	b.WriteString(t1.Table.Render())
	b.WriteString("\nImbalance factors (slowest/fastest writer):\n")
	var summary []string
	for _, s := range t1.Series {
		sum := metrics.Summarize(s.Imbalances)
		fmt.Fprintf(&b, "  %-20s avg %.2f  max %.2f\n", s.Machine, sum.Mean, sum.Max)
		summary = append(summary, fmt.Sprintf("Table I %-18s CoV %.0f%%", s.Machine, s.Summary.CoVPercent()))
	}
	var h strings.Builder
	for _, hist := range Fig2(t1) {
		h.WriteString(hist.Render())
		h.WriteByte('\n')
	}
	return []scenario.Artifact{
		{Name: "table1.txt", Text: b.String()},
		{Name: "fig2.txt", Text: h.String()},
	}, summary, nil
}

func renderFig3(res *scenario.Result, ropt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := fig3Demux(res, ropt.Seed)
	if err != nil {
		return nil, nil, err
	}
	text := fmt.Sprintf("Test 1 imbalance factor: %.2f\nTest 2 imbalance factor: %.2f\nOverall average imbalance: %.2f (max %.2f)\n",
		r.Imbalance1, r.Imbalance2, r.AvgImbalance, r.MaxImbalance)
	return []scenario.Artifact{{Name: "fig3.txt", Text: text}},
		[]string{fmt.Sprintf("Fig 3: imbalance avg %.2f, max %.2f (paper: avg ≈2, up to 3.44)", r.AvgImbalance, r.MaxImbalance)}, nil
}

func renderJobMix(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := jobMixDemux(res)
	if err != nil {
		return nil, nil, err
	}
	tbl := JobMixTable(r)
	text := r.Figure.Render() + "\n" + tbl.Render()
	return []scenario.Artifact{{Name: "jobmix.txt", Text: text}},
		[]string{JobMixLine(r)}, nil
}

func renderFailureSweep(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := failureSweepDemux(res)
	if err != nil {
		return nil, nil, err
	}
	tbl := FailureSweepTable(r)
	text := r.Figure.Render() + "\n" + tbl.Render()
	return []scenario.Artifact{{Name: "failure-sweep.txt", Text: text}},
		[]string{FailureSweepLine(r)}, nil
}

func renderEval(res *scenario.Result, name, title string) ([]scenario.Artifact, []string, error) {
	er, err := evalDemux(res, title)
	if err != nil {
		return nil, nil, err
	}
	var b strings.Builder
	b.WriteString(er.Figure.Render())
	b.WriteByte('\n')
	tbl := SpeedupSummary(er)
	b.WriteString(tbl.Render())
	b.WriteByte('\n')
	return []scenario.Artifact{{Name: name + ".txt", Text: b.String()}},
		[]string{SpeedupLine(er)}, nil
}

// Fig7Artifact reduces the evaluation runs among results (the Fig 5 and
// Fig 6 scenarios, in the order given) to fig7.txt, one panel per
// workload.
func Fig7Artifact(results []*scenario.Result) ([]scenario.Artifact, error) {
	var evals []*EvalResult
	for _, res := range results {
		if !strings.HasPrefix(res.Scenario.Name, evalPrefix) {
			continue
		}
		er, err := evalDemux(res, "")
		if err != nil {
			return nil, err
		}
		evals = append(evals, er)
	}
	var b strings.Builder
	for _, fig := range Fig7(evals) {
		b.WriteString(fig.Render())
		b.WriteByte('\n')
	}
	return []scenario.Artifact{{Name: "fig7.txt", Text: b.String()}}, nil
}
