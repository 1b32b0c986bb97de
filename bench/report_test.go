package main

import (
	"encoding/json"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python: statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want Summary
	}{
		{[]float64{7}, Summary{Median: 7, Q1: 7, Q3: 7, N: 1}},
		{[]float64{1, 2}, Summary{Median: 1.5, Q1: 0.75, Q3: 2.25, N: 2}},
		{[]float64{3, 1, 2}, Summary{Median: 2, Q1: 1, Q3: 3, N: 3}},
		{[]float64{5, 1, 4, 2, 3}, Summary{Median: 3, Q1: 1.5, Q3: 4.5, N: 5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, Summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
	}
	for _, tc := range cases {
		if got := summarize(tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

// TestReportSchema pins the -json layout that a results ledger consumes.
// Changing it means changing reportSchema too.
func TestReportSchema(t *testing.T) {
	pass := true
	rep := Report{
		Schema: reportSchema,
		Header: Header{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "cpu", NProc: 2, Workers: 2, Seed: 42, Mode: "full"},
		Rows: []Row{
			{Workload: "eval-xl", Metric: "wall_s", Value: 9.5, Q1: 9, Q3: 10, N: 3, Unit: "s", Pass: &pass},
			{Workload: "eval-xl", Metric: "pfs.self_cpu_s", Value: 11, Q1: 11, Q3: 11, N: 1, Unit: "s"},
		},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"schema":"repro-bench/1",` +
		`"header":{"go":"go1.24.0","goos":"linux","goarch":"amd64","cpu":"cpu","nproc":2,"workers":2,"seed":42,"mode":"full"},` +
		`"rows":[{"workload":"eval-xl","metric":"wall_s","value":9.5,"q1":9,"q3":10,"n":3,"unit":"s","pass":true},` +
		`{"workload":"eval-xl","metric":"pfs.self_cpu_s","value":11,"q1":11,"q3":11,"n":1,"unit":"s","pass":null}]}`
	if string(b) != want {
		t.Errorf("report JSON changed:\n got %s\nwant %s", b, want)
	}
}

// TestBenchmarkJSONMatchesDriver loads the repository's BENCHMARK.json and
// bench/workloads.json and checks that the driver measures every metric
// they declare, with the same unit, so a renamed metric fails here rather
// than mid-run.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	cfg, err := loadConfig("..")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, d := range layerMetrics {
		units[d.Name] = d.Unit
	}
	for _, d := range cfg.perLayer {
		if u, ok := units[d.Name]; !ok || u != d.Unit {
			t.Errorf("per-layer metric %s [%s]: the driver measures it in %q", d.Name, d.Unit, u)
		}
	}

	rec := &runRecord{SetupS: []float64{0.001}, WallS: 2, CPUS: 3, AllocBytes: 4e9}
	var results []*workloadResult
	for _, w := range cfg.workloads {
		results = append(results, &workloadResult{
			w: w, runs: []*runRecord{rec},
			attempted: 1, traced: rec, att: attribute(nil),
		})
	}
	rep := buildReport(cfg, Header{}, results)
	perWorkload := len(cfg.endToEnd) + 1 + len(layerMetrics)
	if len(rep.Rows) != perWorkload*len(cfg.workloads) {
		t.Errorf("%d rows, want %d per workload", len(rep.Rows), perWorkload)
	}
	line := newResultLine(cfg, rep, results, true)
	if !line.Correct || len(line.Metrics) != len(cfg.perLayer)*len(results) {
		t.Errorf("traced result line over all workloads: correct %v, %d metrics", line.Correct, len(line.Metrics))
	}

	one := results[:1]
	line = newResultLine(cfg, buildReport(cfg, Header{}, one), one, false)
	if _, ok := line.Metrics["setup_s"]; !ok || len(line.Metrics) != len(cfg.endToEnd) {
		t.Errorf("untraced result line has metrics %v, want the %d end-to-end ones including setup_s", line.Metrics, len(cfg.endToEnd))
	}
}

func TestRunCount(t *testing.T) {
	w := &Workload{NominalS: 4.5}
	for _, tc := range []struct {
		runs    int
		seconds float64
		want    int
	}{
		{0, 0, 1},  // neither flag: one run
		{0, 4, 1},  // less than one nominal run: still one
		{0, 25, 5}, // whole nominal runs that fit
		{3, 25, 3}, // -runs wins
	} {
		if got := w.runs(tc.runs, tc.seconds); got != tc.want {
			t.Errorf("runs(%d, %g) = %d, want %d", tc.runs, tc.seconds, got, tc.want)
		}
	}
}
