// Package workloads generates the output patterns of the petascale codes
// the paper evaluates with:
//
//   - Pixie3D, a 3-D extended-MHD solver whose output is eight
//     double-precision 3-D arrays per process, at 32³ ("small", 2 MB/proc),
//     128³ ("large", 128 MB/proc) or 256³ ("extra large", 1 GB/proc) cubes,
//     weak scaling (Section IV-A).
//   - XGC1, a gyrokinetic particle-in-cell fusion code, at a representative
//     38 MB per process (Section IV-B).
//   - GTC-, GTS-, Chimera- and S3D-like checkpoints (the paper repeatedly
//     situates its data sizes against these codes), an ML-training read
//     signature and an mdtest-style small-file payload, provided for the
//     extension benchmarks and job mixes.
//
// The paper uses the codes purely as IO-pattern sources, so shape and size
// (plus index characteristics) are what must be faithful. As an ADIOS group
// is declared once for all writers, every rank of a workload writes the
// same variables with the same sizes and dims: each generator is one
// immutable iomethod.Shape, built once when the package loads, and a rank's
// data is that shape plus its rank. Only the Min/Max characteristics differ
// by rank, derived from (rank, variable) without randomness.
package workloads

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/iomethod"
)

// Pixie3DSize selects the paper's three Pixie3D configurations.
type Pixie3DSize int

const (
	// Pixie3DSmall is the 32-cube model: 2 MB per process.
	Pixie3DSmall Pixie3DSize = iota
	// Pixie3DLarge is the 128-cube model: 128 MB per process.
	Pixie3DLarge
	// Pixie3DXL is the 256-cube model: 1 GB per process.
	Pixie3DXL
)

// Cube returns the per-axis elements of the configuration.
func (s Pixie3DSize) Cube() int {
	switch s {
	case Pixie3DSmall:
		return 32
	case Pixie3DLarge:
		return 128
	case Pixie3DXL:
		return 256
	}
	panic(fmt.Sprintf("workloads: unknown Pixie3D size %d", s))
}

// String names the configuration as the paper does.
func (s Pixie3DSize) String() string {
	switch s {
	case Pixie3DSmall:
		return "small"
	case Pixie3DLarge:
		return "large"
	case Pixie3DXL:
		return "extra large"
	}
	return "unknown"
}

// BytesPerProcess returns the per-process output volume.
func (s Pixie3DSize) BytesPerProcess() int64 {
	c := int64(s.Cube())
	return 8 * c * c * c * 8 // 8 variables × cube³ × sizeof(float64)
}

// pixie3DVars are the eight double-precision MHD state arrays.
var pixie3DVars = []string{"rho", "p", "v_x", "v_y", "v_z", "B_x", "B_y", "B_z"}

// pixie3DShape builds the shape of the given size class: every variable a
// cube of doubles, its characteristics centred on pseudoValue(rank, v) ± 1.
func pixie3DShape(size Pixie3DSize) *iomethod.Shape {
	c := uint64(size.Cube())
	vars := make([]iomethod.VarSpec, len(pixie3DVars))
	for i, name := range pixie3DVars {
		vars[i] = iomethod.VarSpec{Name: name, Bytes: int64(8 * c * c * c), Dims: []uint64{c, c, c}, Min: -1, Max: 1}
	}
	return iomethod.NewShape(pseudoCenter(0), vars...)
}

// Pixie3D returns rank's output for one step of the given size class.
// Min/Max characteristics are deterministic functions of (rank, variable)
// so that index-based value search is exercised meaningfully.
func Pixie3D(rank int, size Pixie3DSize) iomethod.RankData {
	return pixie3D[size].Shape.Rank(rank)
}

// XGC1BytesPerProcess is the representative production output size the
// paper uses (38 MB per process).
const XGC1BytesPerProcess = 38 * 1024 * 1024

// XGC1 returns rank's output for one step: particle phase-space arrays
// summing to 38 MB.
func XGC1(rank int) iomethod.RankData { return xgc1.Shape.Rank(rank) }

// split is a generator whose block is one 1-D double array per variable,
// each taking its fraction of the per-process volume (the last one the
// remainder, so the total is exact), and whose characteristics on rank are
// pseudoValue(rank, v+center) plus lo and hi.
type split struct {
	names  []string
	fracs  []float64
	center int
	lo, hi float64
}

// shape builds the split's shape at bytesPerProcess.
func (sp split) shape(bytesPerProcess int64) *iomethod.Shape {
	vars := make([]iomethod.VarSpec, len(sp.names))
	var used int64
	for i, name := range sp.names {
		b := int64(float64(bytesPerProcess) * sp.fracs[i])
		if i == len(sp.names)-1 {
			b = bytesPerProcess - used
		}
		used += b
		vars[i] = iomethod.VarSpec{Name: name, Bytes: b, Dims: []uint64{uint64(b / 8)}, Min: sp.lo, Max: sp.hi}
	}
	return iomethod.NewShape(pseudoCenter(sp.center), vars...)
}

// s3dSplit is an S3D-like combustion checkpoint: a handful of 3-D species
// and state arrays (the paper cites ~10 MB per process for smaller S3D runs
// and places 38 MB among "larger S3D runs"). Its lo is 0, so a rank's Min
// is its centre exactly (pseudoValue is never -0).
var s3dSplit = split{
	names: []string{"yspecies", "temp", "pressure", "u"},
	fracs: []float64{0.70, 0.10, 0.10, 0.10},
	lo:    0, hi: 100,
}

// pseudoValue derives a stable characteristic value from (rank, varIndex)
// without randomness, keeping workloads deterministic.
func pseudoValue(rank, varIdx int) float64 {
	x := float64(rank*31+varIdx*7) * 0.618033988749895
	return math.Mod(x, 10) - 5
}

// pseudoCenter is the centre function of a shape whose variable v takes
// pseudoValue's variable index v+offset.
func pseudoCenter(offset int) func(rank, v int) float64 {
	return func(rank, v int) float64 { return pseudoValue(rank, v+offset) }
}

// Generator names a workload for experiment drivers.
type Generator struct {
	// Name identifies the workload ("pixie3d-small", "xgc1", ...).
	Name string
	// Shape is the block every rank of the workload writes.
	Shape *iomethod.Shape
	// PerRank is Shape.Rank: a rank's step output.
	PerRank func(rank int) iomethod.RankData
	// BytesPerProcess is the nominal per-process volume.
	BytesPerProcess int64
}

// newGen binds a generator to its shape.
func newGen(name string, s *iomethod.Shape) Generator {
	return Generator{Name: name, Shape: s, PerRank: s.Rank, BytesPerProcess: s.TotalBytes()}
}

// The generators at their representative sizes, each with its shape,
// built once.
var (
	pixie3D = [...]Generator{
		Pixie3DSmall: newGen("pixie3d-"+Pixie3DSmall.String(), pixie3DShape(Pixie3DSmall)),
		Pixie3DLarge: newGen("pixie3d-"+Pixie3DLarge.String(), pixie3DShape(Pixie3DLarge)),
		Pixie3DXL:    newGen("pixie3d-"+Pixie3DXL.String(), pixie3DShape(Pixie3DXL)),
	}
	// xgc1 is five particle arrays: position (3 components folded),
	// velocity (parallel + perpendicular), weight.
	xgc1 = newGen("xgc1", split{
		names: []string{
			"ephase",  // electron phase space
			"iphase",  // ion phase space
			"egid",    // electron ids
			"igid",    // ion ids
			"psn_pot", // field potential slice
		},
		fracs: []float64{0.40, 0.40, 0.05, 0.05, 0.10},
		lo:    -0.5, hi: 0.5,
	}.shape(XGC1BytesPerProcess))
	// gtc: the paper situates its 128 MB/process Pixie3D model as
	// "comparable to what many of the fusion codes generate on a per
	// process basis, such as GTC": particle phase-space arrays
	// dominating, plus field diagnostics.
	gtc = newGen("gtc", split{
		names:  []string{"zion", "zelectron", "phi_field", "diagnostics"},
		fracs:  []float64{0.55, 0.35, 0.08, 0.02},
		center: 11, lo: -2, hi: 2,
	}.shape(128*1024*1024))

	all = []Generator{
		pixie3D[Pixie3DSmall], pixie3D[Pixie3DLarge], pixie3D[Pixie3DXL],
		xgc1,
		gtc,
		// GTS: a shaped-plasma gyrokinetic code, the GTC family with a
		// different variable split, 64 MB/process.
		newGen("gts", split{
			names:  []string{"ions", "electrons", "potential"},
			fracs:  []float64{0.5, 0.4, 0.1},
			center: 23, lo: 0, hi: 1,
		}.shape(64*1024*1024)),
		// Chimera: a supernova checkpoint. The paper places "smaller S3D
		// and Chimera runs" around 10 MB/process and uses Chimera as a
		// size reference for the Pixie3D small model.
		newGen("chimera", split{
			names:  []string{"u_radial", "ye", "entropy", "composition"},
			fracs:  []float64{0.25, 0.15, 0.15, 0.45},
			center: 31, lo: -0.1, hi: 0.1,
		}.shape(10*1024*1024)),
		newGen("s3d", s3dSplit.shape(38*1024*1024)),
		// MLTrain: one training epoch's read signature, 64 MB of dataset
		// shard per process (ImageNet-scale shards across a few hundred
		// readers): sample tensors dominating, a thin label array
		// alongside. The paper's workloads are checkpoint writers; this
		// one supplies the read-heavy counterpart co-scheduled job mixes
		// need.
		newGen("mltrain", split{
			names:  []string{"samples", "labels"},
			fracs:  []float64{0.95, 0.05},
			center: 41, lo: -1, hi: 1,
		}.shape(64*1024*1024)),
		// MDTest: the per-file payload of an mdtest-style metadata job, one
		// tiny entry per created file. The interesting cost is the
		// metadata operations themselves; the job executor multiplies the
		// payload by its files-per-rank count.
		newGen("mdtest", split{
			names:  []string{"entry"},
			fracs:  []float64{1},
			center: 53, lo: 0, hi: 1,
		}.shape(MDTestBytesPerFile)),
	}
)

// MDTestBytesPerFile is the per-file payload of the metadata workload: 4 KiB,
// mdtest's classic small-file size where create/open/close cost dominates
// data movement.
const MDTestBytesPerFile = 4 * 1024

// Pixie3DGen returns the Generator of the given size class.
func Pixie3DGen(size Pixie3DSize) Generator { return pixie3D[size] }

// XGC1Gen returns the XGC1 Generator.
func XGC1Gen() Generator { return xgc1 }

// GTCGen returns the GTC Generator at the paper's representative
// 128 MB/process production size.
func GTCGen() Generator { return gtc }

// S3DGen returns an S3D-like Generator at the given per-process size.
func S3DGen(bytesPerProcess int64) Generator {
	return newGen("s3d", s3dSplit.shape(bytesPerProcess))
}

// All returns every workload generator at its representative size, for
// sweep-style harnesses.
func All() []Generator { return slices.Clone(all) }

// Names returns every generator name, sorted, for error messages and
// discovery surfaces.
func Names() []string {
	names := make([]string, len(all))
	for i, g := range all {
		names[i] = g.Name
	}
	sort.Strings(names)
	return names
}

// ByName looks a generator up by its All() name; "pixie3d-xl" is accepted
// as a spelling of the space-containing "pixie3d-extra large". Every call
// for one name returns the same generator, with the same shape. Unknown
// names return an error listing the available generators (sorted), so spec
// validation messages tell the user what would have worked.
func ByName(name string) (Generator, error) {
	if name == "pixie3d-xl" {
		name = "pixie3d-extra large"
	}
	for _, g := range all {
		if g.Name == name {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("workloads: unknown generator %q (available: %s)",
		name, strings.Join(Names(), ", "))
}
