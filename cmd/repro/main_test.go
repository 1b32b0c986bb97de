package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// paperSuiteDigests pins the SHA-256 of every artifact the quick-mode
// paper suite writes at seed 42 (summary.txt carries wall-clock timings
// and a timestamp, so it is not pinned). The digests were taken from the
// hand-wired driver path that preceded the registry suite, so the suite
// reproduces the paper's artifacts byte for byte.
var paperSuiteDigests = map[string]string{
	"fig1.txt":       "0c12059de814d1f6a9549afcac31a1e980a2eb59bea81cdd9b5e50e3238071bd",
	"table1.txt":     "1105fb1a3973b80603764057d923815c5566fc5e1f029f6951981f3ccd8905f7",
	"fig2.txt":       "c3800637fdb97569d0568d1b932b49ad97eccc8ed16ec48727cef8506784ea1b",
	"fig3.txt":       "3bbf3e71779d0a983f8b69db76a8672743b67febe5413c2067edc5de20743ec5",
	"fig7.txt":       "28f50a310c81ed38c976fa3b3f747f0947656f67c45759db5dfc1c55cde56b60",
	"fig5-small.txt": "01d70affea5de525864cb08fd02d3a9e3b25fea2d3945cd9690a6d84f75d1017",
	"fig5-large.txt": "53877ea8772024d7030738167f37603fd96c45f7a9f03692396738c4117e3ff4",
	"fig5-xl.txt":    "6419b710c4ba9c36aadb6a3beaa996406c621e5e41ee458a2d25662629eb89b5",
	"fig6.txt":       "58378dfd1902605547108855de48765ef566ab01c4df9a1a4923c5865a8f3387",
}

// scenarioFullDigests pins the SHA-256 of the artifact each metadata-heavy
// scenario writes at -mode full, seed 42: the job-mix frontier's mdtest
// creates, the open-storm metadata study and the failure sweep's MDS
// stalls. Neither the paper suite nor bench/ covers them at full scale.
var scenarioFullDigests = map[string]string{
	"jobmix.txt":        "4f3335291c7f566008c5cda29701e4189fa33bae97d50d20453c6ce17eb69a23",
	"metadata.txt":      "b377b6bb8e0899b28236222f82462294e0f5fa7b7590a3f20eb93562a21395e3",
	"failure-sweep.txt": "a2d0f595ff94f1054abe8f644d1900cf19e91af3e501f545d645c5546bd5c8e0",
}

// runRepro runs the command in-process with the given arguments.
func runRepro(t *testing.T, args ...string) {
	t.Helper()
	savedArgs, savedFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = savedArgs, savedFlags }()
	flag.CommandLine = flag.NewFlagSet("repro", flag.ContinueOnError)
	os.Args = append([]string{"repro"}, args...)
	main()
}

// checkDigests compares each named artifact in dir with its digest in
// want.
func checkDigests(t *testing.T, dir string, want map[string]string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s digest changed:\n got %s\nwant %s", name, got, want[name])
		}
	}
}

// TestPaperSuiteGolden runs the default quick-mode suite and the
// per-scenario evaluation figures at seed 42 and checks every artifact
// against its pinned digest.
func TestPaperSuiteGolden(t *testing.T) {
	suite := t.TempDir()
	runRepro(t, "-mode", "quick", "-seed", "42", "-out", suite)
	checkDigests(t, suite, paperSuiteDigests, "fig1.txt", "table1.txt", "fig2.txt", "fig3.txt", "fig7.txt")

	scen := t.TempDir()
	for _, name := range []string{"fig5-small", "fig5-large", "fig5-xl", "fig6"} {
		runRepro(t, "-scenario", name, "-mode", "quick", "-seed", "42", "-out", scen)
	}
	checkDigests(t, scen, paperSuiteDigests, "fig5-small.txt", "fig5-large.txt", "fig5-xl.txt", "fig6.txt")
}

// TestScenarioFullModeGolden runs the job-mix frontier, metadata and
// failure-sweep scenarios at -mode full, seed 42, and checks each artifact
// against its pinned digest.
func TestScenarioFullModeGolden(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"jobmix-frontier", "metadata", "failure-sweep"} {
		runRepro(t, "-scenario", name, "-mode", "full", "-seed", "42", "-out", dir)
	}
	checkDigests(t, dir, scenarioFullDigests, "jobmix.txt", "metadata.txt", "failure-sweep.txt")
}

// TestPaperSuiteWritesEveryArtifact checks that the default suite alone
// writes every pinned artifact, and nothing else besides summary.txt, which
// carries one timing line per suite member.
func TestPaperSuiteWritesEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	runRepro(t, "-mode", "quick", "-seed", "42", "-out", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != "summary.txt" {
			names = append(names, e.Name())
		}
	}
	if len(names) != len(paperSuiteDigests) {
		t.Errorf("suite wrote %q, want the %d pinned artifacts and summary.txt", names, len(paperSuiteDigests))
	}
	checkDigests(t, dir, paperSuiteDigests, names...)

	summary, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var timed []string
	for _, line := range strings.Split(string(summary), "\n") {
		if name, ok := strings.CutPrefix(line, "timing "); ok {
			timed = append(timed, name[:strings.Index(name, ":")])
		}
	}
	if got, want := strings.Join(timed, ","), strings.Join(experiments.PaperSuite, ","); got != want {
		t.Errorf("timing lines for %s, want one per suite member: %s", got, want)
	}
}

// TestScenarioSmoke drives three scenarios no paper artifact covers end to
// end through the CLI surface users drive (Load -> ApplySet -> Validate ->
// Run -> render), at toy scale: a custom JSON spec with a transport,
// workload and grid no paper experiment uses; the failure sweep's scripted
// OST crash/rebuild under the adaptive coordinator and its ablation; and
// the job-mix frontier's three heterogeneous jobs (checkpoint, ML read,
// metadata) co-scheduled on one file system, static vs adaptive. A failed
// run exits the test binary non-zero.
func TestScenarioSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"custom-json", []string{"-scenario", "../../examples/custom.json", "-set", "procs=8", "-set", "samples=1", "-out", ""}},
		{"failure-sweep", []string{"-scenario", "failure-sweep", "-mode", "quick", "-set", "samples=1", "-out", ""}},
		{"jobmix-frontier", []string{"-scenario", "jobmix-frontier", "-mode", "quick", "-set", "samples=1", "-set", "njobs=1,3", "-out", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) { runRepro(t, tc.args...) })
	}
}

// TestFullModeDigestFileListsSuite checks the full-scale oracle's shape:
// testdata/full-seed42.sha256 pins the artifacts of
// `repro -mode full -seed 42` in sha256sum format (check them with
// `sha256sum -c` in the output directory), one line per artifact the
// quick-mode pins cover, no more and no fewer.
func TestFullModeDigestFileListsSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "full-seed42.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if b, err := hex.DecodeString(sum); !ok || err != nil || len(b) != sha256.Size {
			t.Errorf("malformed sha256sum line %q", line)
			continue
		}
		if _, pinned := paperSuiteDigests[name]; !pinned || seen[name] {
			t.Errorf("full-mode digest for %q: not a suite artifact, or listed twice", name)
		}
		seen[name] = true
	}
	for name := range paperSuiteDigests {
		if !seen[name] {
			t.Errorf("full-mode digest file lacks %s", name)
		}
	}
}
