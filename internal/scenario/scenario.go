// Package scenario is the declarative configuration layer of the
// reproduction: one composable Scenario spec — machine, file-system scale,
// workload, transport method and options, interference model, grid axes,
// sample count and seed label — that compiles into runner replicas and
// executes on the campaign worker pool.
//
// Every experiment driver in internal/experiments is a thin builder of one
// of these specs plus a demux of the generic results back into the paper's
// tables and figures; the CLIs load specs from a validating registry
// (-scenario name) or straight from JSON files (-scenario file.json), with
// -set axis=value overrides. New workloads, sweeps, fault injection and
// multi-transport comparisons are therefore data, not code.
//
// The determinism contract of internal/runner carries through unchanged:
// each replica's seed derives from (seed label, grid-point label, sample
// index) via rngx.DeriveSeed, never from scheduling order, so a scenario's
// results are bit-identical at every -parallel setting.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Workload kinds a scenario can execute. Every replica runs as a job mix
// on one executor: jobmix declares its jobs, and each other kind is JSON
// sugar that a grid point compiles into one job (two for paired IOR with
// interference) whose own record is the replica's sample.
const (
	// KindApp runs one collective output step of an application through the
	// adios middleware (the Section IV campaign shape): one app job of one
	// phase at start 0, its step named "<method>.out".
	KindApp = "app"
	// KindIOR runs one IOR instance (the Section II benchmark shape): one
	// ior job.
	KindIOR = "ior"
	// KindPairedIOR runs two simultaneous IOR jobs at a seed-varied phase
	// offset and measures the first (the XTP controlled-interference
	// shape): ior job A at t=0 and, with interference on, ior job B at a
	// start drawn per replica.
	KindPairedIOR = "paired-ior"
	// KindOpenStorm has N openers create one file each against the
	// metadata server (the metadata-variability shape): one storm job.
	KindOpenStorm = "openstorm"
	// KindJobMix co-schedules the spec's Jobs array — N concurrent
	// applications with distinct I/O signatures — onto one shared file
	// system, with per-job phase timing and per-job traffic attribution.
	KindJobMix = "jobmix"
)

// Job kinds a job-mix entry can have.
const (
	// JobKindApp is a checkpoint-heavy writer application running its
	// output steps through the adios middleware, one per phase (KindApp is
	// one of these with a single phase).
	JobKindApp = "app"
	// JobKindMLRead is an ML-training read job: each rank re-reads its
	// dataset shard every phase (epoch).
	JobKindMLRead = "mlread"
	// JobKindMDTest is an mdtest-style metadata job: each rank creates,
	// writes and closes many small files per phase.
	JobKindMDTest = "mdtest"

	// jobKindIOR (one IOR instance) and jobKindStorm (one create and close
	// per opener, i*stagger apart) are the jobs the ior, paired-ior and
	// openstorm sugar compiles into; a spec's jobs array cannot name them.
	jobKindIOR   = "ior"
	jobKindStorm = "openstorm"
)

// Conditions of the Section IV environments.
const (
	// ConditionBase is the production environment with no artificial load.
	ConditionBase = "base"
	// ConditionInterference adds the paper's artificial interference
	// program on top of the environment.
	ConditionInterference = "interference"
)

// Scenario is the declarative spec of one experiment grid.
type Scenario struct {
	// Name identifies the scenario (registry key, artifact base name).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// SeedLabel is the runner.ReplicaKey.Driver used to derive replica
	// seeds (default: Name). It is part of the reproducibility contract:
	// changing it shifts every replica's random stream.
	SeedLabel string `json:"seed_label,omitempty"`
	// PointLabel labels the single grid point of an axis-less scenario
	// (default "all").
	PointLabel string `json:"point_label,omitempty"`

	// Machine is the cluster preset name (default "jaguar").
	Machine string `json:"machine,omitempty"`
	// NumOSTs scales the simulated machine (0 = the preset's full size).
	NumOSTs int `json:"num_osts,omitempty"`
	// NoNoise disables the machine's production background noise.
	NoNoise bool `json:"no_noise,omitempty"`

	// Samples is the default replication count per grid point (axis values
	// may override it per point).
	Samples int `json:"samples,omitempty"`

	Workload     Workload     `json:"workload"`
	Transport    Transport    `json:"transport,omitempty"`
	Interference Interference `json:"interference,omitempty"`

	// Jobs declares a co-scheduled job mix (workload kind "jobmix", which
	// is implied when this is non-empty). Each entry is one concurrent
	// application; the single-workload form above is sugar for a mix of
	// one job (two for paired IOR with interference).
	Jobs []JobSpec `json:"jobs,omitempty"`

	// Axes are the sweep dimensions; the grid is their cross product in
	// order (first axis outermost). Each axis binds one named parameter
	// (and optionally extra ones via value With bundles).
	Axes []Axis `json:"axes,omitempty"`
}

// Workload selects what each replica executes.
type Workload struct {
	// Kind is one of KindApp, KindIOR, KindPairedIOR, KindOpenStorm or
	// KindJobMix.
	Kind string `json:"kind"`

	// Generator names the application workload for KindApp (a
	// workloads.ByName entry: "pixie3d-small", "xgc1", "gtc", ...).
	Generator string `json:"generator,omitempty"`
	// Procs is the application's process count for KindApp (axis "procs"
	// overrides it per point).
	Procs int `json:"procs,omitempty"`

	// Writers is the absolute writer count for the IOR-family kinds and
	// KindOpenStorm (axis "writers" overrides).
	Writers int `json:"writers,omitempty"`
	// WritersPerOST, when positive, sets writers = NumOSTs × ratio instead
	// of Writers (axis "ratio" overrides) — the weak-scaling knob.
	WritersPerOST int `json:"writers_per_ost,omitempty"`
	// SizeMB is the per-writer data size in MB (axis "size" overrides).
	SizeMB float64 `json:"size_mb,omitempty"`
	// Bytes is the exact per-writer byte count; it takes precedence over
	// SizeMB when non-zero (axis "bytes" overrides).
	Bytes float64 `json:"bytes,omitempty"`
	// PinTargets spreads file-per-process files over targets 0..NumOSTs-1
	// explicitly (the Figure 1 configuration) instead of the IOR default.
	PinTargets bool `json:"pin_targets,omitempty"`
	// Flush includes an explicit flush in the timed region.
	Flush bool `json:"flush,omitempty"`
	// SharedFile switches IOR to the single-shared-file organisation.
	SharedFile bool `json:"shared_file,omitempty"`
	// WithInterference launches the second simultaneous job
	// (KindPairedIOR; axis "with_interference" overrides).
	WithInterference bool `json:"with_interference,omitempty"`
	// Stagger spaces KindOpenStorm creates (a Go duration string such as
	// "5ms"; axis "stagger" overrides with nanoseconds).
	Stagger string `json:"stagger,omitempty"`
}

// JobSpec is one application of a co-scheduled job mix.
type JobSpec struct {
	// Name identifies the job in results and per-job attribution
	// (default "job<i>"). Names must be unique within the mix.
	Name string `json:"name,omitempty"`
	// Kind is JobKindApp, JobKindMLRead or JobKindMDTest.
	Kind string `json:"kind"`
	// Generator names the workload signature: required for app jobs
	// ("pixie3d-small", "gtc", ...), defaulted for mlread ("mltrain").
	Generator string `json:"generator,omitempty"`
	// Procs is the job's rank count.
	Procs int `json:"procs"`
	// SizeMB overrides the per-rank per-phase data volume in MB (mlread:
	// bytes read per epoch; mdtest: bytes per created file).
	SizeMB float64 `json:"size_mb,omitempty"`
	// Bytes is the exact per-rank per-phase byte count; it takes
	// precedence over SizeMB when non-zero.
	Bytes float64 `json:"bytes,omitempty"`
	// FilesPerRank is the mdtest job's create count per rank per phase
	// (default 16).
	FilesPerRank int `json:"files_per_rank,omitempty"`
	// Transport configures the app job's adios middleware. An empty
	// method inherits the scenario's transport (and the "method" axis
	// overrides both).
	Transport Transport `json:"transport,omitempty"`
	// StartSeconds delays the job's first phase.
	StartSeconds float64 `json:"start_seconds,omitempty"`
	// PeriodSeconds is the phase cadence: phase p begins no earlier than
	// StartSeconds + p×PeriodSeconds (an overrunning phase starts the
	// next one immediately, back-to-back).
	PeriodSeconds float64 `json:"period_seconds,omitempty"`
	// Phases is the number of I/O phases the job performs (default 1).
	Phases int `json:"phases,omitempty"`
}

// Transport configures the adios middleware for KindApp replicas.
type Transport struct {
	// Method is MPI, POSIX, ADAPTIVE or STAGING (default ADAPTIVE; axis
	// "method" overrides).
	Method string `json:"method,omitempty"`
	// OSTs restricts the transport to targets 0..OSTs-1 (0 = all; axis
	// "transport_osts" overrides).
	OSTs int `json:"osts,omitempty"`
	// WritersPerTarget generalises the adaptive one-writer-per-target rule.
	WritersPerTarget int `json:"writers_per_target,omitempty"`
	// StaggerOpensMS spaces adaptive file creates (milliseconds).
	StaggerOpensMS float64 `json:"stagger_opens_ms,omitempty"`
	// HistoryAware enables the fastest-idle-target dispatch extension.
	HistoryAware bool `json:"history_aware,omitempty"`
	// DisableAdaptation keeps the adaptive structure but turns the
	// coordinator's work-shifting off (the ablation).
	DisableAdaptation bool `json:"disable_adaptation,omitempty"`
	// NoGlobalIndex skips the coordinator's global index file.
	NoGlobalIndex bool `json:"no_global_index,omitempty"`
	// StagingNodes / StagingBufferMB / StagingLeastLoaded tune STAGING.
	StagingNodes       int     `json:"staging_nodes,omitempty"`
	StagingBufferMB    float64 `json:"staging_buffer_mb,omitempty"`
	StagingLeastLoaded bool    `json:"staging_least_loaded,omitempty"`
	// MPISplitFiles splits the MPI method's output into N shared files.
	MPISplitFiles int `json:"mpi_split_files,omitempty"`
}

// Interference configures the environment's disturbance model.
type Interference struct {
	// Condition is ConditionBase (default) or ConditionInterference (axis
	// "condition" overrides per point).
	Condition string `json:"condition,omitempty"`
	// OSTs / ProcsPerOST / ChunkMB tune the artificial interference
	// program (zero values = the paper's 8 targets × 3 procs × 1 GB).
	OSTs        []int   `json:"osts,omitempty"`
	ProcsPerOST int     `json:"procs_per_ost,omitempty"`
	ChunkMB     float64 `json:"chunk_mb,omitempty"`
	// SlowOSTs deterministically degrade targets — declarative fault
	// injection for staging the imbalance the paper measures.
	SlowOSTs []SlowOST `json:"slow_osts,omitempty"`
	// Failures scripts storage failures: OST crash/rebuild episodes and an
	// MDS stall window at declared virtual times. Declaring at least one
	// episode (or a stall window) arms the script on every replica; the
	// boolean "failures" axis switches it per grid point.
	Failures FailuresSpec `json:"failures,omitempty"`
}

// FailuresSpec is the declarative failure script (see
// interference.FailureConfig for the execution semantics).
type FailuresSpec struct {
	// DeadTimeoutSeconds overrides how long a client request against a dead
	// target hangs before failing with ErrTargetDown (0 = the file-system
	// default).
	DeadTimeoutSeconds float64 `json:"dead_timeout_seconds,omitempty"`
	// Episodes are the scripted OST crashes.
	Episodes []FailureEpisodeSpec `json:"episodes,omitempty"`
	// MDSStallAtSeconds / MDSStallSeconds script a metadata-server stall
	// window (MDSStallSeconds 0 disables it).
	MDSStallAtSeconds float64 `json:"mds_stall_at_seconds,omitempty"`
	MDSStallSeconds   float64 `json:"mds_stall_seconds,omitempty"`
}

// FailureEpisodeSpec is one declared OST crash: dead for DeadSeconds from
// AtSeconds, then rebuilding for RebuildSeconds with RebuildTax of the disk
// bandwidth consumed before returning to healthy.
type FailureEpisodeSpec struct {
	OST            int     `json:"ost"`
	AtSeconds      float64 `json:"at_seconds"`
	DeadSeconds    float64 `json:"dead_seconds"`
	RebuildSeconds float64 `json:"rebuild_seconds,omitempty"`
	RebuildTax     float64 `json:"rebuild_tax,omitempty"`
}

// declared reports whether the spec scripts any failure at all.
func (f FailuresSpec) declared() bool {
	return len(f.Episodes) > 0 || f.MDSStallSeconds > 0
}

// SlowOST pins one storage target to a service fraction (1 = clean).
type SlowOST struct {
	Index  int     `json:"index"`
	Factor float64 `json:"factor"`
}

// Axis is one sweep dimension.
type Axis struct {
	// Name is the parameter the axis binds ("size", "ratio", "procs",
	// "method", "condition", "machine", "writers", "stagger", ...).
	Name string `json:"name"`
	// LabelFmt formats a value into the point-label fragment (one fmt verb,
	// e.g. "size=%gMB", "procs=%d", "%s"). Default: "<name>=<value>".
	// Explicit per-value labels take precedence.
	LabelFmt string `json:"label,omitempty"`
	// Values are the swept values.
	Values []Value `json:"values"`
}

// seedLabel resolves the replica-key driver label.
func (s *Scenario) seedLabel() string {
	if s.SeedLabel != "" {
		return s.SeedLabel
	}
	return s.Name
}

// JSON renders the spec as indented JSON.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Parse decodes a JSON spec strictly (unknown fields are errors, so typos
// in hand-written specs fail loudly) and validates it.
func Parse(b []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parse: %v", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadFile reads and parses a JSON spec file.
func LoadFile(path string) (Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %v", err)
	}
	s, err := Parse(b)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
