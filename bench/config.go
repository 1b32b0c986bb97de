package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline median by which the metric may worsen (end-to-end metrics
// only).
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the driver reads: the workload
// names, in report order, and the metrics it prints.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// Workload is one benchmark workload: a registered scenario at the fixed
// preset mode plus -set overrides, and the SHA-256 of each artifact it
// renders at the pinned seed. NominalS is what one of its runs takes on the
// reference host, in seconds; it turns -seconds into a run count.
type Workload struct {
	Name     string            `json:"-"`
	Mode     string            `json:"-"`
	Scenario string            `json:"scenario"`
	Sets     []string          `json:"sets"`
	NominalS float64           `json:"nominal_s"`
	Digests  map[string]string `json:"digests"`
}

// runs is how many untraced runs the workload gets: -runs when given,
// otherwise as many of its nominal runs as -seconds holds, and at least one.
// So the count, the n behind every median, does not depend on how fast the
// host happens to be.
func (w *Workload) runs(runs int, seconds float64) int {
	if runs > 0 {
		return runs
	}
	return max(1, int(seconds/w.NominalS))
}

// workloadsFile is bench/workloads.json: the fixed settings, the workload
// definitions and the calibration runs.
type workloadsFile struct {
	Mode        string               `json:"mode"`
	PinnedSeed  int64                `json:"pinned_seed"`
	MaxWorkers  int                  `json:"max_workers"`
	Workloads   map[string]*Workload `json:"workloads"`
	Calibration *calibration         `json:"calibration"`
}

// calibration holds repeated untraced runs of one commit at the pinned seed:
// per set, per workload, per metric, the median and quartiles.
type calibration struct {
	Header Header                          `json:"header"`
	Sets   []map[string]map[string]Summary `json:"sets"`
}

// config is everything a run needs from the two files.
type config struct {
	workloads  []*Workload
	endToEnd   []metricDef
	perLayer   []metricDef
	mode       string
	pinnedSeed int64
	maxWorkers int
	calib      *calibration
}

const workloadsPath = "bench/workloads.json"

// loadConfig reads BENCHMARK.json and bench/workloads.json under root and
// checks that every workload BENCHMARK.json names is defined and pinned.
func loadConfig(root string) (*config, error) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bf); err != nil {
		return nil, err
	}
	var wf workloadsFile
	if err := readJSON(filepath.Join(root, workloadsPath), &wf); err != nil {
		return nil, err
	}
	if wf.Mode == "" || wf.MaxWorkers < 1 {
		return nil, fmt.Errorf("%s: mode and a positive max_workers are required", workloadsPath)
	}
	cfg := &config{
		endToEnd:   bf.EndToEnd,
		perLayer:   bf.PerLayer,
		mode:       wf.Mode,
		pinnedSeed: wf.PinnedSeed,
		maxWorkers: wf.MaxWorkers,
		calib:      wf.Calibration,
	}
	for _, entry := range bf.Workloads {
		w, ok := wf.Workloads[entry.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no definition for workload %q", workloadsPath, entry.Name)
		}
		if len(w.Digests) == 0 || w.NominalS <= 0 {
			return nil, fmt.Errorf("%s: workload %q needs artifact digests and a positive nominal_s", workloadsPath, entry.Name)
		}
		w.Name, w.Mode = entry.Name, wf.Mode
		cfg.workloads = append(cfg.workloads, w)
	}
	if len(cfg.workloads) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: no workloads")
	}
	return cfg, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// workload returns the named workload.
func (c *config) workload(name string) (*Workload, error) {
	var names []string
	for _, w := range c.workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// workers is the replica worker count, also the children's GOMAXPROCS.
func (c *config) workers() int {
	return min(c.maxWorkers, runtime.NumCPU())
}

// Header identifies the machine and settings of a run. Two runs are
// comparable only when their headers are equal.
type Header struct {
	Go      string `json:"go"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	CPU     string `json:"cpu"`
	NProc   int    `json:"nproc"`
	Workers int    `json:"workers"`
	Seed    int64  `json:"seed"`
	Mode    string `json:"mode"`
}

func newHeader(cfg *config, seed int64) Header {
	return Header{
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPU:     cpuModel(),
		NProc:   runtime.NumCPU(),
		Workers: cfg.workers(),
		Seed:    seed,
		Mode:    cfg.mode,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux); elsewhere it
// reports "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
