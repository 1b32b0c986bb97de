// Command bench is the repository's end-to-end benchmark. It runs each
// workload named in BENCHMARK.json (a registered scenario at -mode full plus
// -set overrides, defined in bench/workloads.json) in a child process of its
// own, one at a time, and reports the user-visible cost of each campaign:
// set-up, wall and CPU time, and allocation. Every run checks the rendered
// artifacts against their pinned SHA-256 digests. With -trace 1 it also runs
// each workload once under the CPU profiler and splits the profile by
// simulator layer.
//
// Run it from the repository root, either directly or through bench/run.sh,
// which builds it into .bench_build first:
//
//	go run ./bench -trace 1
//	bash bench/run.sh -trace 1
//
// See bench/README.md for the workloads, the metrics and the attribution
// rule.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
)

// options are the parent's flags.
type options struct {
	workload string
	seed     int64
	seedSet  bool
	seconds  float64
	runs     int
	trace    bool
	jsonPath string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: every workload)")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed (default: the pinned seed, at which artifact digests are checked)")
	flag.Float64Var(&o.seconds, "seconds", 0, "time to measure per workload: without -runs, run each workload as often as this holds its nominal run time (bench/workloads.json)")
	flag.IntVar(&o.runs, "runs", 0, "untraced runs per workload (default: from -seconds, at least 1)")
	trace := flag.Int("trace", 0, "1: after the untraced runs, run each workload once under the CPU profiler and report the per-layer metrics")
	flag.StringVar(&o.jsonPath, "json", "", "also write the header and one row per (workload, metric) to this file")
	child := flag.Bool("child", false, "internal: run one workload in this process and print its record")
	workers := flag.Int("workers", 1, "internal: replica workers of a child")
	profile := flag.String("profile", "", "internal: CPU profile path of a traced child")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })

	if *child {
		if err := childMain(o.workload, o.seed, *workers, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || o.runs < 0 || o.seconds < 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures the selected workloads, prints the table, the digests, the
// simulated work and, last, the one-line verdict, and reports whether every
// artifact was right.
func run(o options) (bool, error) {
	cfg, err := loadConfig(".")
	if err != nil {
		return false, err
	}
	if !o.seedSet {
		o.seed = cfg.pinnedSeed
	}
	selected := cfg.workloads
	if o.workload != "" {
		w, err := cfg.workload(o.workload)
		if err != nil {
			return false, err
		}
		selected = []*Workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}

	hdr := newHeader(cfg, o.seed)
	if err := writeJSONLine(os.Stdout, hdr); err != nil {
		return false, err
	}
	var results []*workloadResult
	for _, w := range selected {
		r, err := measure(exe, cfg, w, o)
		if err != nil {
			return false, err
		}
		results = append(results, r)
	}

	rep := buildReport(cfg, hdr, results)
	writeTable(os.Stdout, rep)
	for _, r := range results {
		if r.traced != nil {
			writeShares(os.Stdout, r)
			fmt.Printf("profile %s: go tool pprof -top %s %s\n", r.w.Name, exe, r.profile)
		}
		names := make([]string, 0, len(r.digests))
		for name := range r.digests {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Printf("digest %s %s %s\n", r.w.Name, name, r.digests[name])
		}
		if len(r.runs) > 0 {
			writeWork(os.Stdout, r.w.Name, r.runs[0])
		}
	}
	if o.jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.jsonPath, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	line := newResultLine(cfg, rep, results, o.trace)
	return line.Correct, writeJSONLine(os.Stdout, line)
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	w                 *Workload
	runs              []*runRecord // untraced runs that completed
	attempted, failed int          // artifacts, over all runs
	digests           map[string]string
	traced            *runRecord
	att               Attribution
	profile           string
}

// measure runs one workload's children one after another: its untraced
// runs, then with o.trace one profiled run.
func measure(exe string, cfg *config, w *Workload, o options) (*workloadResult, error) {
	r := &workloadResult{w: w}
	pinned := o.seed == cfg.pinnedSeed
	for range w.runs(o.runs, o.seconds) {
		rec, err := spawn(exe, w, o.seed, cfg.workers(), "")
		if r.add(rec, err, pinned) {
			r.runs = append(r.runs, rec)
		}
	}
	if !o.trace {
		return r, nil
	}

	r.profile = filepath.Join(".bench_build", "profiles", w.Name+".pprof")
	if err := os.MkdirAll(filepath.Dir(r.profile), 0o755); err != nil {
		return nil, err
	}
	rec, err := spawn(exe, w, o.seed, cfg.workers(), r.profile)
	if !r.add(rec, err, pinned) {
		return r, nil
	}
	data, err := os.ReadFile(r.profile)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.profile, err)
	}
	r.traced, r.att = rec, attribute(samples)
	return r, nil
}

// add counts one run's artifacts against the correctness gate and reports
// whether the run completed. At the pinned seed every pinned artifact must
// match its digest; at any other seed each must be present and match the
// workload's first run, so repeated runs must agree bit for bit. Failures
// are named on standard error.
func (r *workloadResult) add(rec *runRecord, err error, pinned bool) bool {
	r.attempted += len(r.w.Digests)
	if err != nil {
		r.failed += len(r.w.Digests)
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.w.Name, err)
		return false
	}
	if r.digests == nil {
		r.digests = rec.Digests
	}
	want := r.digests
	if pinned {
		want = r.w.Digests
	}
	bad := verify(r.w.Digests, want, rec.Digests)
	r.failed += len(bad)
	for _, msg := range bad {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.w.Name, msg)
	}
	return true
}

// verify checks every artifact named in pins: it must be in got, with the
// digest want gives it. It returns one message per failing artifact.
func verify(pins, want, got map[string]string) []string {
	names := make([]string, 0, len(pins))
	for name := range pins {
		names = append(names, name)
	}
	slices.Sort(names)
	var bad []string
	for _, name := range names {
		switch d, ok := got[name]; {
		case !ok:
			bad = append(bad, name+": artifact missing")
		case d != want[name]:
			bad = append(bad, fmt.Sprintf("%s: sha256 %s, want %s", name, d, want[name]))
		}
	}
	return bad
}

// spawn runs one child process for a workload and returns its record. Its
// CPU time and peak resident set come from the process state.
func spawn(exe string, w *Workload, seed int64, workers int, profile string) (*runRecord, error) {
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(workers)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	rec := new(runRecord)
	if err := json.Unmarshal(stdout.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	ps := cmd.ProcessState
	rec.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rec.PeakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return rec, nil
}
