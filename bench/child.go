package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"

	_ "repro/internal/experiments" // registers the paper's scenarios
	"repro/internal/profiling"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// runRecord is what one child process measured, sent to the parent as JSON.
// Times are wall-clock seconds on the host, never simulated time.
type runRecord struct {
	// SetupS holds setupReps set-up durations, timed before the campaign.
	SetupS []float64 `json:"setup_s"`

	WallS   float64 `json:"wall_s"`
	RunS    float64 `json:"run_s"`
	RenderS float64 `json:"render_s"`
	VerifyS float64 `json:"verify_s"`

	AllocBytes float64 `json:"alloc_bytes"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	GCCycles   float64 `json:"gc_cycles"`

	// Replicas and TailIdleS come from Progress timestamps (traced runs).
	Replicas  int     `json:"replicas"`
	TailIdleS float64 `json:"tail_idle_s"`

	// Simulated work, summed over every replica's Sample.
	BytesWritten     float64 `json:"bytes_written"`
	BytesRead        float64 `json:"bytes_read"`
	MetaOps          int     `json:"meta_ops"`
	RedirectedWrites int     `json:"redirected_writes"`

	// Digests maps each artifact name to its hex SHA-256.
	Digests map[string]string `json:"digests"`

	// Filled in by the parent from the child's process state.
	CPUS      float64 `json:"-"`
	PeakRSSMB float64 `json:"-"`
}

// setup is the user's set-up path before the campaign starts: load the
// registered spec at the preset mode, apply the overrides, validate.
func setup(w *Workload) (scenario.Scenario, *scenario.Definition, error) {
	s, def, err := scenario.Load(w.Scenario, w.Mode)
	if err != nil {
		return s, nil, err
	}
	for _, set := range w.Sets {
		if err := scenario.ApplySet(&s, set); err != nil {
			return s, nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return s, nil, err
	}
	if def == nil || def.Render == nil {
		return s, nil, fmt.Errorf("workload %s: scenario %q has no renderer", w.Name, w.Scenario)
	}
	return s, def, nil
}

// runWorkload first times setupReps set-ups, then runs the workload once
// through the same public campaign API the CLIs use (Load → ApplySet → Run
// → Render), timing each call, and hashes the artifacts. With a profile
// path it also writes a CPU profile covering that campaign and records
// replica completion times. The allocation and GC counters cover the
// campaign alone, not the set-ups before it.
func runWorkload(w *Workload, seed int64, workers int, profilePath string) (*runRecord, error) {
	setups, err := timeSetups(w)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{SetupS: setups, Digests: map[string]string{}}
	before := readRuntimeMetrics()
	if profilePath == "" {
		err = timeCampaign(rec, w, seed, workers, false)
	} else {
		var stop func() error
		if stop, err = profiling.Start(profilePath, ""); err != nil {
			return nil, err
		}
		err = timeCampaign(rec, w, seed, workers, true)
		if stopErr := stop(); err == nil {
			err = stopErr
		}
	}
	if err != nil {
		return nil, err
	}
	after := readRuntimeMetrics()
	rec.AllocBytes = after[0] - before[0]
	rec.GCCPUS = after[1] - before[1]
	rec.GCCycles = after[2] - before[2]
	return rec, nil
}

// timeCampaign is the path a user waits for, from spec load to hashed
// artifacts. It records the spans, the digests and the simulated work.
func timeCampaign(rec *runRecord, w *Workload, seed int64, workers int, traced bool) error {
	wall := profiling.StartStopwatch()
	s, def, err := setup(w)
	if err != nil {
		return err
	}

	ropt := scenario.RunOptions{Seed: seed, Parallel: workers}
	var done []float64
	if traced {
		ropt.Progress = func(int, int, runner.ReplicaKey) {
			done = append(done, wall.Elapsed().Seconds())
		}
	}
	span := profiling.StartStopwatch()
	res, err := scenario.Run(s, ropt)
	if err != nil {
		return err
	}
	rec.RunS = span.Elapsed().Seconds()

	span = profiling.StartStopwatch()
	artifacts, _, err := def.Render(res, ropt)
	if err != nil {
		return err
	}
	rec.RenderS = span.Elapsed().Seconds()

	span = profiling.StartStopwatch()
	for _, a := range artifacts {
		sum := sha256.Sum256([]byte(a.Text))
		rec.Digests[a.Name] = hex.EncodeToString(sum[:])
	}
	rec.VerifyS = span.Elapsed().Seconds()
	rec.WallS = wall.Elapsed().Seconds()

	rec.Replicas = len(done)
	if n := len(done); n >= 2 {
		rec.TailIdleS = done[n-1] - done[n-2]
	}
	for _, pt := range res.Points {
		for _, smp := range pt.Samples {
			rec.RedirectedWrites += smp.AdaptiveWrites
			if smp.Jobs == nil {
				rec.BytesWritten += smp.TotalBytes
			}
			for _, j := range smp.Jobs {
				rec.BytesWritten += j.BytesWritten
				rec.BytesRead += j.BytesRead
				rec.MetaOps += j.MetaOps
			}
		}
	}
	return nil
}

// readRuntimeMetrics returns the process's cumulative allocated bytes, GC
// CPU seconds and GC cycles so far.
func readRuntimeMetrics() [3]float64 {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return [3]float64{
		float64(samples[0].Value.Uint64()),
		samples[1].Value.Float64(),
		float64(samples[2].Value.Uint64()),
	}
}

// setupReps is how many times a child repeats the set-up before its
// campaign. One takes tens of microseconds, so a single reading is mostly
// timer and cache noise.
const setupReps = 200

// timeSetups repeats the set-up and returns each duration in seconds; the
// first is cold.
func timeSetups(w *Workload) ([]float64, error) {
	out := make([]float64, 0, setupReps)
	for range setupReps {
		sw := profiling.StartStopwatch()
		if _, _, err := setup(w); err != nil {
			return nil, err
		}
		out = append(out, sw.Elapsed().Seconds())
	}
	return out, nil
}

// childMain is the body of a child process: run one workload and print its
// record as JSON on standard output.
func childMain(name string, seed int64, workers int, profilePath string) error {
	cfg, err := loadConfig(".")
	if err != nil {
		return err
	}
	w, err := cfg.workload(name)
	if err != nil {
		return err
	}
	rec, err := runWorkload(w, seed, workers, profilePath)
	if err != nil {
		return fmt.Errorf("workload %s: %w", name, err)
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}
