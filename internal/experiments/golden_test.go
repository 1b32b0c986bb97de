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
)

// Golden-checksum regression tests: each spec below runs a fixed-seed
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
	sizesMB, ratios := []float64{8, 128}, []int{1, 4, 16}
	res := runDemux(t, quick(t, "fig1", "osts=8", "ratio=1,4,16", "size=8,128", "samples=3"),
		2010, 0, fig1Demux)
	h := sha256.New()
	for _, sizeMB := range sizesMB {
		sizeName := sizeNameOf(sizeMB)
		for _, ratio := range ratios {
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
	res := runDemux(t, tableISamples(tableI(16), 8, 6, 4), 2010, 0, tableIDemux)
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
	s := quick(t, "fig3", "osts=16", "samples=6")
	s.Workload.Bytes = 32 * pfs.MB
	res := runDemux(t, s, 2010, 2, fig3DemuxAt(2010))
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
	s := quick(t, "fig5-small", "procs=32,64", "samples=2", "osts=16")
	s.Axes[0] = methodAxis(4, 16)
	res := runDemux(t, s, 2010, 0, evalDemuxTitled("golden"))
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

// TestGoldenScenarioChecksums pins the scenario bodies the four specs
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
		return scenario.Load(arg, "quick")
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

// registeredSpecDigests pins the SHA-256 of every registered scenario's
// JSON spec at both preset modes. The bench workloads and the suite
// goldens ride on these exact specs, so a preset or spec-builder change
// that moves any field shows up here first, by name and mode.
var registeredSpecDigests = map[string]string{
	"failure-sweep@quick":   "d4592a607e26b1de40b0d30342b4dadb4b147fafbf06f0f47d421685fee13b10",
	"failure-sweep@full":    "9007a2937de31710479333058083ea158ca30e47434c1a960b40fdf6933ec976",
	"fig1@quick":            "ee0b5d4afdd585675aab8a87b590c45c190d293487d2107c1a291b76f410f1d4",
	"fig1@full":             "1952a4381e1b72fd3caf5203b96570c1bbfe758b1b0c30e98a9170a629d9eff4",
	"fig3@quick":            "6a0bcd62dacf6bd006362e1c8df1d8a303fa9d59c5562b0755c926b8e17ea4b0",
	"fig3@full":             "9b53ed9d30ddf73a61fafddb97ecf00317a1dc2e89293688eb18f03bea43dce4",
	"fig5-large@quick":      "fed1d620f0eeeaa2ebce32a8a018f0139f32baa53f62088fb88c11f5f55b447f",
	"fig5-large@full":       "40394141f191dc5afbf6d18f5ef4c2dc291ce0abe53e87660f83f7583a0d5f92",
	"fig5-small@quick":      "682a3b867e6a73ac22d28ae662855ce53be22af35b5c29c6ee7b3bf9c822ae42",
	"fig5-small@full":       "db26456d9ded72049f58496cec14fcea2873b908c43b381502cd10ed68a1abac",
	"fig5-xl@quick":         "f59f0ff3dc91ec58a547eca5b0a6572eedda2c90ee803e9d84486b087972ff66",
	"fig5-xl@full":          "5314035d5f3111605410fd7a29f51829e5cbdeb47136c88660a2fd47652e06da",
	"fig6@quick":            "9fe7ff5251a8c6ecf793bc073f187d3c99a8af7d569d39842fd2fd701bfa3efd",
	"fig6@full":             "c7936417cfda670adf8f45ba5122e384d2c4ad06f6a94cdf901b92ee2da08c0c",
	"jobmix-frontier@quick": "a39f84af122cd5b5f631c237580a732253d1cae00071529d9523b7ded6e293d4",
	"jobmix-frontier@full":  "adc0d9f7e9422269f56d9a79d60cce1bcb4c1bcedcc6623061bf75f31c9d6e10",
	"metadata@quick":        "0a7f21d179c625a13e0d4946f97de9c9ab653139a23616eb547d931cae288c2e",
	"metadata@full":         "65abfd768b62a3086a9e2b10eefaff17b0270c59399ada8239efeffc86aa7d34",
	"table1@quick":          "cfcf3b29fddd0ed6cc8f91e59deb835d36cd5841b570f558bdd3eb1027c62f40",
	"table1@full":           "031320df67c6812370cd287773e906e24e186cdad156c6645833f37bb1777895",
}

func TestRegisteredSpecsGolden(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range scenario.Names() {
		def, _ := scenario.Lookup(name)
		for _, mode := range []string{"quick", "full"} {
			key := name + "@" + mode
			seen[key] = true
			s, err := def.Spec(mode)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			b, err := s.JSON()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(b)
			if got, want := hex.EncodeToString(sum[:]), registeredSpecDigests[key]; got != want {
				t.Errorf("%s spec digest changed:\n got %s\nwant %s", key, got, want)
			}
		}
	}
	if len(registeredSpecDigests) != len(seen) {
		t.Errorf("%d spec digests pinned for %d registered specs and modes: drop the stale ones",
			len(registeredSpecDigests), len(seen))
	}
}
