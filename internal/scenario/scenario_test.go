package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/cluster"
)

// roundTripSpec builds a spec exercising every serializable corner:
// decorated axis values (labels, per-value samples, With bundles),
// transport options and the interference model.
func roundTripSpec() Scenario {
	jag := StrValue("jaguar")
	jag.Label = "Jaguar"
	jag.Samples = 3
	jag.With = map[string]Value{"writers": NumValue(4)}
	return Scenario{
		Name:        "round-trip",
		Description: "serialization test",
		Machine:     "jaguar",
		NumOSTs:     4,
		NoNoise:     true,
		Samples:     2,
		Workload:    Workload{Kind: KindIOR, SizeMB: 8, Writers: 2, PinTargets: true},
		Transport:   Transport{Method: "ADAPTIVE", OSTs: 4, StagingNodes: 2},
		Interference: Interference{
			Condition: ConditionBase,
			SlowOSTs:  []SlowOST{{Index: 1, Factor: 0.5}},
		},
		Axes: []Axis{
			{Name: "machine", Values: []Value{jag, StrValue("franklin")}},
			{Name: "size", LabelFmt: "size=%gMB", Values: []Value{NumValue(1), NumValue(8)}},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := roundTripSpec()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got.Points(), s.Points()) {
		t.Errorf("compiled grids differ after round trip:\n got %+v\nwant %+v", got.Points(), s.Points())
	}
	if !reflect.DeepEqual(got.Transport, s.Transport) {
		t.Errorf("transport differs: got %+v want %+v", got.Transport, s.Transport)
	}
	if !reflect.DeepEqual(got.Interference, s.Interference) {
		t.Errorf("interference differs: got %+v want %+v", got.Interference, s.Interference)
	}
}

func TestScalarValueEncoding(t *testing.T) {
	// Undecorated values must serialize as bare JSON scalars (the form
	// hand-written specs use), decorated ones as objects.
	s := roundTripSpec()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	text := string(b)
	if !strings.Contains(text, `"franklin"`) {
		t.Errorf("undecorated string value did not encode as a bare scalar:\n%s", text)
	}
	if !strings.Contains(text, `"label": "Jaguar"`) {
		t.Errorf("decorated value lost its label:\n%s", text)
	}
}

func TestParseScalarForms(t *testing.T) {
	spec := `{
		"name": "scalar-forms",
		"samples": 1,
		"num_osts": 2,
		"workload": {"kind": "ior", "writers": 2, "size_mb": 1},
		"axes": [
			{"name": "size", "label": "size=%gMB", "values": [1, {"value": 8, "samples": 2}]},
			{"name": "noise", "values": [true, false]}
		]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("want 4 points, got %d", len(pts))
	}
	if pts[0].Label != "size=1MB/noise=true" {
		t.Errorf("label = %q", pts[0].Label)
	}
	if pts[0].Samples != 1 || pts[2].Samples != 2 {
		t.Errorf("per-value samples: got %d and %d, want 1 and 2", pts[0].Samples, pts[2].Samples)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name": "x", "workload": {"kind": "ior", "writers": 1}, "wrkload": 3}`))
	if err == nil || !strings.Contains(err.Error(), "wrkload") {
		t.Errorf("want unknown-field error naming the typo, got %v", err)
	}
}

// TestParseRejectsBadSlowOSTs checks that Parse rejects a slow_osts entry
// that no replica could apply: an index at or past the point's target
// count (num_osts, an osts axis value, or the preset's count when num_osts
// is 0) or a factor outside (0, 1].
func TestParseRejectsBadSlowOSTs(t *testing.T) {
	spec := func(osts, slow string) []byte {
		return []byte(`{"name":"slow","machine":"jaguar",` + osts + `"samples":1,` +
			`"workload":{"kind":"ior","writers":2,"size_mb":1},"interference":{"slow_osts":[` + slow + `]}}`)
	}
	for _, tc := range []struct {
		name, osts, slow, want string
	}{
		{"index past num_osts", `"num_osts":4,`, `{"index":9,"factor":0.5}`, "slow OST index 9 out of range (machine has 4)"},
		{"negative index", `"num_osts":4,`, `{"index":-1,"factor":0.5}`, "slow OST index -1 out of range"},
		{"index past preset", ``, `{"index":672,"factor":0.5}`, "slow OST index 672 out of range (machine has 672)"},
		{"index past an axis value", `"axes":[{"name":"osts","values":[8,4]}],`, `{"index":6,"factor":0.5}`, `point "osts=4": slow OST index 6`},
		{"factor above 1", `"num_osts":4,`, `{"index":1,"factor":7}`, "slow OST 1 factor 7 outside (0, 1]"},
		{"factor omitted", `"num_osts":4,`, `{"index":1}`, "slow OST 1 factor 0 outside (0, 1]"},
		{"valid", `"num_osts":4,`, `{"index":3,"factor":1},{"index":0,"factor":0.25}`, ""},
		{"valid on preset", ``, `{"index":671,"factor":0.5}`, ""},
	} {
		_, err := Parse(spec(tc.osts, tc.slow))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Parse: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name:     "v",
			NumOSTs:  2,
			Samples:  1,
			Workload: Workload{Kind: KindIOR, Writers: 2, SizeMB: 1},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"unknown transport", func(s *Scenario) {
			s.Workload = Workload{Kind: KindApp, Procs: 2, Generator: "gtc"}
			s.Transport.Method = "RDMA"
		}, "unknown transport method"},
		{"zero samples", func(s *Scenario) { s.Samples = 0 }, "zero samples"},
		{"conflicting axes", func(s *Scenario) {
			s.Axes = []Axis{
				{Name: "size", Values: []Value{NumValue(1)}},
				{Name: "size", Values: []Value{NumValue(8)}},
			}
		}, "conflicting grid axes"},
		{"with-bundle conflict", func(s *Scenario) {
			v := StrValue("jaguar")
			v.With = map[string]Value{"size": NumValue(4)}
			s.Axes = []Axis{
				{Name: "machine", Values: []Value{v}},
				{Name: "size", Values: []Value{NumValue(1)}},
			}
		}, "conflicts with grid axis"},
		{"unknown kind", func(s *Scenario) { s.Workload.Kind = "mapreduce" }, "unknown workload kind"},
		{"missing kind", func(s *Scenario) { s.Workload.Kind = "" }, "workload kind required"},
		{"unknown machine", func(s *Scenario) { s.Machine = "summit" }, "unknown machine"},
		{"unknown generator", func(s *Scenario) {
			s.Workload = Workload{Kind: KindApp, Procs: 2, Generator: "hpl"}
		}, "unknown generator"},
		{"app without procs", func(s *Scenario) {
			s.Workload = Workload{Kind: KindApp, Generator: "xgc1"}
		}, "positive process count"},
		{"app without generator", func(s *Scenario) {
			s.Workload = Workload{Kind: KindApp, Procs: 2}
		}, "needs a generator"},
		{"no writers", func(s *Scenario) { s.Workload.Writers = 0 }, "positive writers"},
		{"no name", func(s *Scenario) { s.Name = "" }, "needs a name"},
		{"empty axis", func(s *Scenario) {
			s.Axes = []Axis{{Name: "size"}}
		}, "has no values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestApplySet(t *testing.T) {
	s := Scenario{
		Name:     "set",
		NumOSTs:  4,
		Samples:  2,
		Workload: Workload{Kind: KindIOR, Writers: 2, SizeMB: 1},
		Axes: []Axis{
			{Name: "size", LabelFmt: "size=%gMB", Values: []Value{NumValue(1), NumValue(8)}},
		},
	}
	if err := ApplySet(&s, "size=2,4"); err != nil {
		t.Fatalf("axis override: %v", err)
	}
	if got := s.Points(); len(got) != 2 || got[0].Label != "size=2MB" || got[1].Label != "size=4MB" {
		t.Errorf("axis override points: %+v", got)
	}
	if err := ApplySet(&s, "samples=5"); err != nil {
		t.Fatalf("samples: %v", err)
	}
	if s.Samples != 5 {
		t.Errorf("samples = %d", s.Samples)
	}
	if err := ApplySet(&s, "osts=8"); err != nil {
		t.Fatalf("osts: %v", err)
	}
	if s.NumOSTs != 8 {
		t.Errorf("num_osts = %d", s.NumOSTs)
	}
	if err := ApplySet(&s, "bogus=1"); err == nil || !strings.Contains(err.Error(), "unknown -set key") {
		t.Errorf("want unknown-key error, got %v", err)
	}
	if err := ApplySet(&s, "nokey"); err == nil || !strings.Contains(err.Error(), "key=value") {
		t.Errorf("want syntax error, got %v", err)
	}
	if err := ApplySet(&s, "writers=3"); err != nil || s.Workload.Writers != 3 {
		t.Errorf("writers: err %v, writers = %d", err, s.Workload.Writers)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("spec invalid after overrides: %v", err)
	}

	// Every number -set parses must be finite: a NaN or infinite size used
	// to pass Validate and reach the file system as a negative write.
	for _, set := range []string{"size=NaN", "size=Inf", "size=-Inf", "size=+inf", "size=1,nan",
		"size=1e400", "size_mb=NaN", "size_mb=Inf", "size_mb=-Inf"} {
		if err := ApplySet(&s, set); err == nil || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("-set %s: err = %v, want a non-finite refusal", set, err)
		}
	}
	if err := ApplySet(&s, "size=1e300"); err != nil {
		t.Fatalf("size=1e300: %v", err)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "outside [0, 2^63)") {
		t.Errorf("size=1e300 validated (%v); want the per-writer size range error", err)
	}
	if err := ApplySet(&s, "size=2,4"); err != nil {
		t.Fatal(err)
	}
	if err := ApplySet(&s, "condition=interferance"); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `unknown condition "interferance"`) {
		t.Errorf("misspelt condition validated (%v); want the unknown-condition error", err)
	}
	if err := ApplySet(&s, "condition=base"); err != nil {
		t.Fatal(err)
	}
	if err := ApplySet(&s, "method=\xff"); err == nil || !strings.Contains(err.Error(), "not UTF-8") {
		t.Errorf("non-UTF-8 -set: err = %v, want a refusal", err)
	}

	// -set writers fails, naming the source, when every grid point takes
	// its writer count from elsewhere.
	bundle := func(key string) Value {
		v := StrValue("jaguar")
		v.With = map[string]Value{key: NumValue(4)}
		return v
	}
	for _, tc := range []struct {
		name string
		spec Scenario
		want string // substring of the error; "" = accepted
	}{
		{"writers per OST", Scenario{Workload: Workload{WritersPerOST: 1}}, "writers_per_ost=1"},
		{"ratio axis", Scenario{Axes: []Axis{{Name: "ratio", Values: []Value{NumValue(1)}}}}, "ratio axis"},
		{"with writers", Scenario{Axes: []Axis{{Name: "machine", Values: []Value{bundle("writers"), bundle("writers")}}}},
			"every machine axis value"},
		{"with ratio", Scenario{Axes: []Axis{{Name: "machine", Values: []Value{bundle("ratio")}}}},
			"every machine axis value"},
		{"one value unbound", Scenario{Axes: []Axis{{Name: "machine", Values: []Value{bundle("writers"), StrValue("xtp")}}}}, ""},
		{"ratio overridden to 0", Scenario{Workload: Workload{WritersPerOST: 0}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec
			err := ApplySet(&s, "writers=8")
			if tc.want == "" {
				if err != nil || s.Workload.Writers != 8 {
					t.Fatalf("err %v, writers = %d; want writers=8 applied", err, s.Workload.Writers)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if s.Workload.Writers != 0 {
				t.Fatalf("rejected override still set writers = %d", s.Workload.Writers)
			}
		})
	}
}

func TestLabelFormatting(t *testing.T) {
	named := NumValue(5e6)
	named.Label = "5ms"
	ax := Axis{Name: "stagger", Values: []Value{named}}
	if got := ax.labelFor(named); got != "5ms" {
		t.Errorf("explicit label: %q", got)
	}
	ax = Axis{Name: "ratio", LabelFmt: "ratio=%d", Values: nil}
	if got := ax.labelFor(NumValue(16)); got != "ratio=16" {
		t.Errorf("%%d label: %q", got)
	}
	ax = Axis{Name: "cond"}
	if got := ax.labelFor(StrValue("base")); got != "cond=base" {
		t.Errorf("default label: %q", got)
	}
}

// TestParallelDeterminism pins the layer's core contract: a scenario's
// results are bit-identical at every -parallel setting because replica
// seeds derive from grid coordinates, never from scheduling.
func TestParallelDeterminism(t *testing.T) {
	spec := Scenario{
		Name:     "det",
		NumOSTs:  4,
		Samples:  3,
		Workload: Workload{Kind: KindIOR, SizeMB: 4, WritersPerOST: 1},
		Axes: []Axis{
			{Name: "size", LabelFmt: "size=%gMB", Values: []Value{NumValue(1), NumValue(4)}},
		},
	}
	seq, err := Run(spec, RunOptions{Seed: 11, Parallel: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := Run(spec, RunOptions{Seed: 11, Parallel: 4})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(seq.Points, par.Points) {
		t.Errorf("parallel run diverged from sequential run")
	}
}

// runFresh is the fresh-world reference for the reuse contract: it runs
// every replica of spec in key order through execReplica with its own
// cluster.NewPool, so each Rent constructs its world.
func runFresh(t *testing.T, spec Scenario, seed int64) []PointResult {
	t.Helper()
	keys, pts := spec.ReplicaKeys()
	var out []PointResult
	for _, pt := range pts {
		cfg, err := spec.point(pt.Params)
		if err != nil {
			t.Fatalf("%s: point %q: %v", spec.Name, pt.Label, err)
		}
		pr := PointResult{Label: pt.Label, Params: pt.Params}
		for range pt.Samples {
			pool := cluster.NewPool()
			smp, err := spec.execReplica(cfg, keys[0].Seed(seed), pool, nil)
			pool.Close()
			if err != nil {
				t.Fatalf("%s: replica %v: %v", spec.Name, keys[0], err)
			}
			pr.Samples = append(pr.Samples, smp)
			keys = keys[1:]
		}
		out = append(out, pr)
	}
	return out
}

// TestExecReplicaReturnsWorldOnError pins the rental protocol on an error
// path: a replica whose slow-target index lies outside the machine fails
// after it has rented its world, and the world must still go back to the
// pool, so the next rental of the same shape gets it again instead of a
// newly built one.
func TestExecReplicaReturnsWorldOnError(t *testing.T) {
	spec := Scenario{
		Name:         "bad-slow-ost",
		NumOSTs:      4,
		NoNoise:      true,
		Samples:      1,
		Workload:     Workload{Kind: KindIOR, SizeMB: 1, Writers: 2},
		Interference: Interference{SlowOSTs: []SlowOST{{Index: 9, Factor: 0.5}}},
	}
	cfg, err := spec.point(spec.Points()[0].Params)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	pool := cluster.NewPool()
	defer pool.Close()
	rent := func() *cluster.Cluster {
		c, err := pool.Rent(cfg.machine, cluster.Config{Seed: 2, NumOSTs: cfg.numOSTs})
		if err != nil {
			t.Fatalf("Rent: %v", err)
		}
		return c
	}
	// Seed the pool with one world, which the failing replica then rents.
	world := rent()
	pool.Return(world)
	if _, err := spec.execReplica(cfg, 1, pool, nil); err == nil || !strings.Contains(err.Error(), "slow OST index 9 out of range") {
		t.Fatalf("execReplica error = %v, want the slow OST range error", err)
	}
	next := rent()
	pool.Return(next)
	if next != world {
		t.Fatal("the failed replica did not return its world to the pool: the next rental built a new one")
	}
}

// TestWideSharedIORFails runs an IOR shared file striped wider than the
// file system's single-file limit: the run's create fails, so the campaign
// returns that error, and every writer leaves the barrier without writing
// rather than panicking inside the kernel.
func TestWideSharedIORFails(t *testing.T) {
	s, err := Parse([]byte(`{"name":"shared-wide","machine":"jaguar","samples":1,"no_noise":true,` +
		`"workload":{"kind":"ior","writers":200,"size_mb":1,"shared_file":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, RunOptions{Seed: 42, Parallel: 1}); err == nil ||
		!strings.Contains(err.Error(), "stripe count 200 exceeds file system limit 160") {
		t.Fatalf("Run error = %v, want the stripe-limit create failure", err)
	}
}

// TestWorldReuseDeterminism pins the world-reuse contract end to end: a
// mixed-kind campaign — every single-workload kind (app, ior, paired-ior,
// openstorm) sharing each worker's rented worlds — is bit-identical to the
// fresh-world reference (runFresh), at one worker and at eight, with
// production noise off and on, and so is a campaign with a failure script
// armed on some points and not others (the health lifecycle must survive
// world reuse too). The noisy paired-ior points launch the second job, so
// they only return if the executor joins on its runs rather than waiting
// for the noise to drain. Under -race this doubles as the reuse layer's
// concurrency stress test.
func TestWorldReuseDeterminism(t *testing.T) {
	kinds := Axis{Name: "kind", Values: []Value{
		StrValue(KindApp), StrValue(KindIOR),
		StrValue(KindPairedIOR), StrValue(KindOpenStorm),
	}}
	mixed := Scenario{
		Name:    "reuse-det",
		NumOSTs: 4,
		NoNoise: true,
		Samples: 3,
		Workload: Workload{
			Kind:      KindIOR, // overridden per point by the kind axis
			SizeMB:    4,
			Writers:   4,
			Procs:     8,
			Generator: "pixie3d-small",
		},
		Axes: []Axis{kinds},
	}
	noisy := Scenario{
		Name:    "reuse-det-noise",
		NumOSTs: 4,
		Samples: 2,
		Workload: Workload{
			Kind:             KindIOR,
			SizeMB:           4,
			Writers:          4,
			Procs:            8,
			Generator:        "pixie3d-small",
			WithInterference: true,
		},
		Axes: []Axis{kinds},
	}
	failing, err := Parse([]byte(failureJSON))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 31
	for _, spec := range []Scenario{mixed, noisy, failing} {
		want := runFresh(t, spec, seed)
		for _, parallel := range []int{1, 8} {
			res, err := Run(spec, RunOptions{Seed: seed, Parallel: parallel})
			if err != nil {
				t.Fatalf("%s (parallel=%d): %v", spec.Name, parallel, err)
			}
			if !reflect.DeepEqual(res.Points, want) {
				t.Errorf("%s: %d-worker pooled run diverged from fresh worlds", spec.Name, parallel)
			}
		}
	}
}

// TestTraceSlowOSTDraining traces an adaptive-method campaign on a system
// with one deliberately degraded target and checks the timeline captures
// the defect: the slow target reports its service factor, data drains to
// disk over time, and the heatmap renderings are produced.
func TestTraceSlowOSTDraining(t *testing.T) {
	// 32 writers on 4 targets, 128 MB each: every group pushes well past
	// the target cache, so the crawling target's writers lag and the
	// coordinator has work to shift — the shape of the paper's adaptive
	// advantage (and of core's TestAdaptiveShiftsWorkFromSlowTargets).
	spec := Scenario{
		Name:    "trace-slow",
		NumOSTs: 4,
		NoNoise: true,
		Samples: 1,
		Workload: Workload{
			Kind:      KindApp,
			Generator: "pixie3d-large",
			Procs:     32,
		},
		Transport:    Transport{Method: "ADAPTIVE", OSTs: 4},
		Interference: Interference{SlowOSTs: []SlowOST{{Index: 0, Factor: 0.15}}},
	}
	res, err := Run(spec, RunOptions{
		Seed:     7,
		Parallel: 1,
		Trace:    &TraceOptions{IntervalSeconds: 0.5},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("no trace captured")
	}
	tr := res.Trace
	if len(tr.Samples) == 0 {
		t.Fatal("trace has no samples")
	}
	slowSeen := false
	for _, smp := range tr.Samples {
		if len(smp.Slow) > 0 && smp.Slow[0] < 1 {
			slowSeen = true
			break
		}
	}
	if !slowSeen {
		t.Error("trace never shows target 0 degraded")
	}
	first, last := tr.Samples[0], tr.Samples[len(tr.Samples)-1]
	if last.Drained <= first.Drained || last.Drained <= 0 {
		t.Errorf("trace shows no draining: first %.0f last %.0f", first.Drained, last.Drained)
	}
	if tr.Activity == "" || tr.Slowness == "" || tr.Throughput == "" {
		t.Error("trace renderings missing")
	}
	if !strings.Contains(tr.Render(), "Activity") {
		t.Error("Render() missing sections")
	}
	// The run's measurements must be unaffected by tracing.
	if len(res.Points) != 1 || len(res.Points[0].Samples) != 1 {
		t.Fatalf("unexpected result shape: %+v", res.Points)
	}
	if res.Points[0].Samples[0].AdaptiveWrites == 0 {
		t.Error("adaptive campaign on a degraded target redirected no writes")
	}
}

// TestRegistryLoad exercises name-vs-file resolution.
func TestRegistryLoad(t *testing.T) {
	Register(Definition{
		Name: "test-loaded",
		Spec: func(mode string) (Scenario, error) {
			return Scenario{
				Name:     "test-loaded",
				Samples:  1,
				NumOSTs:  2,
				Workload: Workload{Kind: KindIOR, Writers: 1, SizeMB: 1},
			}, nil
		},
	})
	if _, def, err := Load("test-loaded", "quick"); err != nil || def == nil {
		t.Errorf("registered load: def=%v err=%v", def, err)
	}
	if _, _, err := Load("no-such-scenario", "quick"); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("want unknown-scenario error, got %v", err)
	}
	if _, _, err := Load("no/such/file.json", "quick"); err == nil {
		t.Error("want file error")
	}
}

func TestWithConflictReportedDeterministically(t *testing.T) {
	// A value that binds several names colliding with grid axes must always
	// report the same one (the alphabetically first), regardless of map
	// iteration order — validation errors are part of reproducible output.
	build := func() Scenario {
		v := StrValue("jaguar")
		v.With = map[string]Value{
			"zz": NumValue(1), "mm": NumValue(2), "aa": NumValue(3),
		}
		return Scenario{
			Name:     "v",
			NumOSTs:  2,
			Samples:  1,
			Workload: Workload{Kind: KindIOR, Writers: 2, SizeMB: 1},
			Axes: []Axis{
				{Name: "machine", Values: []Value{v}},
				{Name: "zz", Values: []Value{NumValue(1)}},
				{Name: "mm", Values: []Value{NumValue(1)}},
				{Name: "aa", Values: []Value{NumValue(1)}},
			},
		}
	}
	for i := 0; i < 30; i++ {
		s := build()
		err := s.Validate()
		if err == nil {
			t.Fatal("conflicting with-bundle accepted")
		}
		if !strings.Contains(err.Error(), `binds "aa"`) {
			t.Fatalf("iteration %d: error picked a different binding: %v", i, err)
		}
	}
}
