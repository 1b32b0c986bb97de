package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// Golden-checksum regression tests: each driver below runs a fixed-seed
// scaled-down campaign and hashes every raw sample (exact float64 bits) plus
// the rendered artifact. The pinned digests were captured before the
// allocation-free kernel/pfs rework; any optimization that perturbs event
// ordering or floating-point evaluation order fails these tests loudly
// instead of silently shifting the paper's tables and figures.
//
// If a change is *supposed* to alter simulation results, rerun with
//	go test ./internal/experiments -run TestGolden -v
// and update the constants from the failure output.

const (
	goldenFig1Digest   = "61971c8263cabb7a6ca26c06b96fc8db383743a1577b8c48a58071573e46aea6"
	goldenTableIDigest = "ea644d461215ae0a8e944b3edaefd2bbb1b6cdf10d988ba60ede438d75cba782"
	goldenFig3Digest   = "5feb214a78e7f8a38d6d63e44eb821ae875664a2ed6e931dd87f7020f20cf167"
	goldenFig5Digest   = "ef845f8698e987f375cb7d79d362634781a3b97ea767ee672406429d4d5287e3"

	goldenJobMixDigest       = "95c753364a71d9122f98f8f3e8bfa184b28a7a535b37c44773563ec1cbb1eed6"
	goldenFailureSweepDigest = "28ba766c0d676a565ccf4dddfa74e468d9be6b5837e6fcb3571ce4a01b58d151"
	goldenMetadataDigest     = "2af81a62e6aefe93db635ca7546274c2d0179d547e9dab0f1d5ea8929fca93a8"
	goldenTransportsDigest   = "ab112b02c6f33445aa807e358819f31feb072dfabacf308a7c3115857db946f2"
	goldenStagingDigest      = "cfdc40b2f29caa99c3109d401edc04e9882f84e3efcc265e9650eed12f1da270"
)

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashInts(h hash.Hash, xs []int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashString(h hash.Hash, s string) {
	hashInts(h, []int{len(s)})
	h.Write([]byte(s))
}

func TestGoldenFig1Checksum(t *testing.T) {
	opt := Fig1Options{
		OSTs:    8,
		Ratios:  []int{1, 4, 16},
		SizesMB: []float64{8, 128},
		Samples: 3,
		Seed:    2010,
	}
	res, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, sizeMB := range opt.SizesMB {
		sizeName := sizeNameOf(sizeMB)
		for _, ratio := range opt.Ratios {
			hashString(h, sizeName)
			hashInts(h, []int{ratio})
			hashFloats(h, res.Samples[sizeName][ratio])
		}
	}
	hashString(h, res.Aggregate.Render())
	hashString(h, res.PerWriter.Render())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFig1Digest {
		t.Fatalf("Fig1 golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenFig1Digest)
	}
}

// sizeNameOf mirrors Fig1's series naming so sample lookup stays in sync.
func sizeNameOf(sizeMB float64) string {
	return fmt.Sprintf("%gMB", sizeMB)
}

func TestGoldenTableIChecksum(t *testing.T) {
	res, err := TableI(TableIOptions{
		JaguarSamples:   8,
		FranklinSamples: 6,
		XTPSamples:      4,
		ScaleOSTs:       16,
		Seed:            2010,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range res.Series {
		hashString(h, s.Machine)
		hashFloats(h, s.BWSamples)
		hashFloats(h, s.Imbalances)
	}
	hashString(h, res.Table.Render())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTableIDigest {
		t.Fatalf("Table I golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenTableIDigest)
	}
}

func TestGoldenFig3Checksum(t *testing.T) {
	res, err := Fig3(Fig3Options{OSTs: 16, BytesPerWriter: 32 * pfs.MB, AverageOver: 6, Seed: 2010, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashFloats(h, res.Test1Times)
	hashFloats(h, res.Test2Times)
	hashFloats(h, []float64{res.Imbalance1, res.Imbalance2, res.AvgImbalance, res.MaxImbalance})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFig3Digest {
		t.Fatalf("Fig3 golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenFig3Digest)
	}
}

func TestGoldenFig5Checksum(t *testing.T) {
	res, err := EvaluateWorkload(
		workloads.Pixie3DGen(workloads.Pixie3DSmall), "golden",
		EvalOptions{
			ProcCounts:   []int{32, 64},
			Samples:      2,
			MPIOSTs:      4,
			AdaptiveOSTs: 16,
			NumOSTs:      16,
			Seed:         2010,
		})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]CaseKey, 0, len(res.BWSamples))
	for k := range res.BWSamples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Condition != b.Condition {
			return a.Condition < b.Condition
		}
		return a.Procs < b.Procs
	})
	h := sha256.New()
	for _, k := range keys {
		hashString(h, string(k.Method))
		hashString(h, string(k.Condition))
		hashInts(h, []int{k.Procs})
		hashFloats(h, res.BWSamples[k])
		hashFloats(h, res.ElapsedSamples[k])
		hashInts(h, res.AdaptiveCounts[k])
	}
	hashString(h, res.Figure.Render())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFig5Digest {
		t.Fatalf("Fig5 golden checksum changed:\n got %s\nwant %s\n"+
			"simulation outputs are no longer bit-identical to the pinned baseline", got, goldenFig5Digest)
	}
}

// transportCampaign runs the POSIX (file per process) and staging
// transports on a busy, partly degraded machine, with and without the
// artificial interference program. The staging buffers hold two blocks per
// node, so ranks block on the drainers and the drain timing shows up in
// every sample.
func transportCampaign() scenario.Scenario {
	return scenario.Scenario{
		Name:      "golden-transports",
		Machine:   "jaguar",
		NumOSTs:   8,
		Samples:   2,
		Workload:  scenario.Workload{Kind: scenario.KindApp, Generator: "pixie3d-small"},
		Transport: scenario.Transport{StagingNodes: 2, StagingBufferMB: 5},
		Interference: scenario.Interference{
			SlowOSTs: []scenario.SlowOST{{Index: 1, Factor: 0.4}},
		},
		Axes: []scenario.Axis{
			{Name: "method", LabelFmt: "%s", Values: []scenario.Value{
				scenario.StrValue("POSIX"), scenario.StrValue("STAGING"),
			}},
			{Name: "condition", LabelFmt: "%s", Values: []scenario.Value{
				scenario.StrValue(scenario.ConditionBase), scenario.StrValue(scenario.ConditionInterference),
			}},
			{Name: "procs", LabelFmt: "procs=%d", Values: []scenario.Value{
				scenario.NumValue(8), scenario.NumValue(24),
			}},
		},
	}
}

// TestGoldenScenarioChecksums pins the scenario bodies the three drivers
// above do not reach: the job mix, the failure sweep and the metadata storm
// at their quick presets, a POSIX and staging campaign, and the staging
// transport's least-loaded drain through examples/custom.json. Each digest
// covers every raw sample and the rendered artifacts.
func TestGoldenScenarioChecksums(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func() (scenario.Scenario, *scenario.Definition, error)
		want string
	}{
		{"jobmix-frontier", quickSpec("jobmix-frontier"), goldenJobMixDigest},
		{"failure-sweep", quickSpec("failure-sweep"), goldenFailureSweepDigest},
		{"metadata", quickSpec("metadata"), goldenMetadataDigest},
		{"posix+staging", func() (scenario.Scenario, *scenario.Definition, error) {
			return transportCampaign(), nil, nil
		}, goldenTransportsDigest},
		{"staging", quickSpec("../../examples/custom.json"), goldenStagingDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, def, err := tc.spec()
			if err != nil {
				t.Fatal(err)
			}
			if got := scenarioDigest(t, s, def); got != tc.want {
				t.Fatalf("%s golden checksum changed:\n got %s\nwant %s\n"+
					"simulation outputs are no longer bit-identical to the pinned baseline", tc.name, got, tc.want)
			}
		})
	}
}

// quickSpec loads a registered scenario (or a spec file) at the quick preset.
func quickSpec(arg string) func() (scenario.Scenario, *scenario.Definition, error) {
	return func() (scenario.Scenario, *scenario.Definition, error) {
		return scenario.Load(arg, ModeQuick)
	}
}

// scenarioDigest runs s at seed 2010 and hashes every sample field plus the
// rendered artifacts (the definition's renderer, or the generic table for a
// spec without one).
func scenarioDigest(t *testing.T, s scenario.Scenario, def *scenario.Definition) string {
	t.Helper()
	opt := scenario.RunOptions{Seed: 2010, Parallel: 2}
	res, err := scenario.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, pt := range res.Points {
		hashString(h, pt.Label)
		for _, smp := range pt.Samples {
			hashFloats(h, []float64{smp.Elapsed, smp.TotalBytes, smp.AggregateBW})
			hashFloats(h, smp.WriterTimes)
			hashFloats(h, smp.PerWriterBW)
			hashInts(h, []int{smp.AdaptiveWrites, smp.WriteFailures, smp.FailedWriters, smp.QueuePeak, len(smp.Jobs)})
			for _, j := range smp.Jobs {
				hashString(h, j.Name)
				hashString(h, j.Kind)
				hashInts(h, []int{j.Ranks, j.MetaOps})
				hashFloats(h, []float64{j.Start, j.Elapsed, j.BytesWritten, j.BytesRead, j.BW})
			}
		}
	}
	if def == nil || def.Render == nil {
		tbl := res.Table()
		hashString(h, tbl.Render())
		return hex.EncodeToString(h.Sum(nil))
	}
	artifacts, summary, err := def.Render(res, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range artifacts {
		hashString(h, a.Name)
		hashString(h, a.Text)
	}
	for _, line := range summary {
		hashString(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}
