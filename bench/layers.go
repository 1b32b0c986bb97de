package main

import (
	"slices"
	"strings"
)

// layers lists the simulator's layers in report order. Every profile sample
// is charged to exactly one of them.
var layers = []string{
	"simkernel", "pfs", "mpisim", "transports", "core",
	"rngx", "interference", "campaign", "runtime",
}

// layerPackages maps repro packages to their layer. A package below a
// listed path belongs to it too. Every other repro/ package (cluster,
// scenario, runner, experiments, workloads, machines, trace, stats, metrics)
// is campaign plumbing.
var layerPackages = map[string]string{
	"repro/internal/simkernel":    "simkernel",
	"repro/internal/pfs":          "pfs",
	"repro/internal/mpisim":       "mpisim",
	"repro/internal/transports":   "transports",
	"repro/internal/iomethod":     "transports",
	"repro/internal/ior":          "transports",
	"repro/internal/bp":           "transports",
	"repro/adios":                 "transports",
	"repro/internal/core":         "core",
	"repro/internal/rngx":         "rngx",
	"repro/internal/interference": "interference",
}

// entryPoints are cumulative-CPU metrics: a sample counts toward one when
// any frame of its stack is one of the listed functions, at most once per
// sample however deep the recursion.
var entryPoints = map[string][]string{
	"pfs.flush_cpu_s": {
		"repro/internal/pfs.(*FlushOp).Step",
		"repro/internal/pfs.(*File).Flush",
	},
	"pfs.write_cpu_s": {
		"repro/internal/pfs.(*WriteOp).Step",
		"repro/internal/pfs.(*File).WriteAt",
		"repro/internal/pfs.(*File).Append",
		"repro/internal/pfs.(*OST).Write",
		"repro/internal/pfs.(*OST).StartWrite",
	},
	"pfs.read_cpu_s": {
		"repro/internal/pfs.(*ReadOp).Step",
		"repro/internal/pfs.(*File).ReadAt",
	},
	"pfs.meta_cpu_s": {
		"repro/internal/pfs.(*CreateOp).Step",
		"repro/internal/pfs.(*OpenOp).Step",
		"repro/internal/pfs.(*CloseOp).Step",
		"repro/internal/pfs.(*MDS).Op",
	},
	"campaign.rent_cpu_s": {
		"repro/cluster.(*Pool).Rent",
	},
	"rngx.reseed_cpu_s": {
		"repro/internal/rngx.(*Source).Reseed",
		"repro/internal/rngx.(*Source).ReseedNamed",
	},
}

// Attribution is a CPU profile split by layer and by entry point, in
// nanoseconds. The SelfNS values sum exactly to TotalNS.
type Attribution struct {
	TotalNS int64
	Samples int64
	SelfNS  map[string]int64
	EntryNS map[string]int64
}

// attribute charges each sample's CPU to the layer of the innermost frame
// in a repro/ package, so standard-library and runtime helpers (a sort, an
// allocation) count against their caller; a stack with no repro/ frame (GC
// workers, the scheduler) goes to runtime. It also sums the entry points.
func attribute(samples []Sample) Attribution {
	att := Attribution{SelfNS: map[string]int64{}, EntryNS: map[string]int64{}}
	for _, l := range layers {
		att.SelfNS[l] = 0
	}
	metricOf := map[string]string{}
	for metric, fns := range entryPoints {
		att.EntryNS[metric] = 0
		for _, fn := range fns {
			metricOf[fn] = metric
		}
	}
	var credited []string
	for _, s := range samples {
		att.TotalNS += s.CPU
		att.Samples += s.Count
		layer := "runtime"
		for _, f := range s.Frames {
			if l, ok := layerOf(f); ok {
				layer = l
				break
			}
		}
		att.SelfNS[layer] += s.CPU

		credited = credited[:0]
		for _, f := range s.Frames {
			if m, ok := metricOf[f]; ok && !slices.Contains(credited, m) {
				credited = append(credited, m)
				att.EntryNS[m] += s.CPU
			}
		}
	}
	return att
}

// layerOf returns the layer of a profiled function, or false when the
// function is not in a repro/ package.
func layerOf(fn string) (string, bool) {
	pkg := packageOf(fn)
	if !strings.HasPrefix(pkg, "repro/") {
		return "", false
	}
	for p := pkg; ; {
		if l, ok := layerPackages[p]; ok {
			return l, true
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return "campaign", true
		}
		p = p[:i]
	}
}

// packageOf extracts the import path from a profiled function name such as
// "repro/internal/pfs.(*OST).recompute.func1" or
// "repro/internal/simkernel.(*Ring[go.shape.int]).Push". Type arguments
// may themselves contain paths, so they are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}
