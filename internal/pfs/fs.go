package pfs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// Layout describes how a file is striped across OSTs.
type Layout struct {
	// OSTs explicitly lists the storage targets (by index) the file stripes
	// over, in round-robin order. When nil, the file system allocates
	// StripeCount consecutive targets round-robin (Lustre-style).
	OSTs []int

	// StripeCount is used when OSTs is nil; zero means the configured
	// default stripe count.
	StripeCount int

	// StripeSize in bytes; zero means the configured default.
	StripeSize int64
}

// File is an open file handle. A File is not safe for use outside the
// owning kernel's handoff discipline.
type File struct {
	fs      *FileSystem
	inode   *File // the handle CreateOp made (itself for that handle); writes advance its size
	osts    []int
	stripe  int64
	size    int64
	touched []uint64 // bitset of OST ids written through any handle; shared by OpenOp copies, never resized
	closed  bool
}

// FileSystem is a simulated parallel file system instance.
type FileSystem struct {
	K    *simkernel.Kernel //repro:reset-skip immutable wiring to the owning kernel
	Cfg  Config
	OSTs []*OST
	MDS  *MDS

	rng     *rngx.Source
	files   map[string]*File
	nextOST int
	// jobs names the registered jobs for per-job traffic attribution
	// (ids are index+1; 0 is the unattributed bucket); see jobacct.go.
	jobs []string
}

// New constructs a file system on kernel k: an empty shell (kernel, master
// stream, namespace, metadata server) armed by Reset, so a fresh file
// system and a reused one run the same code. cfg is validated and
// defaulted.
func New(k *simkernel.Kernel, cfg Config) (*FileSystem, error) {
	fs := &FileSystem{
		K:     k,
		rng:   rngx.New(0),
		files: make(map[string]*File),
		MDS:   newMDS(k),
	}
	if err := fs.Reset(cfg); err != nil {
		return nil, err
	}
	return fs, nil
}

// Reset arms the file system for a configuration: the RNG streams are
// reseeded in draw order, the OST set is resized and each target's fluid
// state zeroed, the MDS re-sized, and the namespace cleared. New ends in
// it; a pooled world calls it again per replica. The owning kernel must
// already have been Reset (clock at zero, no pending events). The OST count
// may differ from the previous run.
func (fs *FileSystem) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	fs.Cfg = cfg // OSTs and MDS read through &fs.Cfg, so this re-points every knob
	fs.rng.ReseedNamed(cfg.Seed, "pfs")
	if cfg.NumOSTs < len(fs.OSTs) {
		for i := cfg.NumOSTs; i < len(fs.OSTs); i++ {
			fs.OSTs[i] = nil
		}
		fs.OSTs = fs.OSTs[:cfg.NumOSTs]
	}
	for _, o := range fs.OSTs {
		o.reset()
	}
	for i := len(fs.OSTs); i < cfg.NumOSTs; i++ {
		fs.OSTs = append(fs.OSTs, newOST(fs.K, &fs.Cfg, i))
	}
	// The MDS stream's seed is the master stream's first draw.
	fs.MDS.reset(&fs.Cfg, fs.rng.Int63())
	clear(fs.files)
	fs.nextOST = 0
	fs.jobs = fs.jobs[:0]
	return nil
}

// MustNew is New for tests and examples where the config is known-good.
func MustNew(k *simkernel.Kernel, cfg Config) *FileSystem {
	fs, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// OST returns the storage target with index i.
func (fs *FileSystem) OST(i int) *OST { return fs.OSTs[i] }

// resolveLayout turns a Layout into a concrete OST list and stripe size.
func (fs *FileSystem) resolveLayout(l Layout) ([]int, int64, error) {
	stripeSize := l.StripeSize
	if stripeSize <= 0 {
		stripeSize = fs.Cfg.StripeSize
	}
	if len(l.OSTs) > 0 {
		if len(l.OSTs) > fs.Cfg.MaxStripeCount {
			return nil, 0, fmt.Errorf("pfs: stripe count %d exceeds file system limit %d",
				len(l.OSTs), fs.Cfg.MaxStripeCount)
		}
		osts := append([]int(nil), l.OSTs...)
		for _, i := range osts {
			if i < 0 || i >= len(fs.OSTs) {
				return nil, 0, fmt.Errorf("pfs: OST index %d out of range [0,%d)", i, len(fs.OSTs))
			}
		}
		return osts, stripeSize, nil
	}
	count := l.StripeCount
	if count <= 0 {
		count = fs.Cfg.DefaultStripeCount
	}
	if count > fs.Cfg.MaxStripeCount {
		return nil, 0, fmt.Errorf("pfs: stripe count %d exceeds file system limit %d",
			count, fs.Cfg.MaxStripeCount)
	}
	if count > len(fs.OSTs) {
		return nil, 0, fmt.Errorf("pfs: stripe count %d exceeds OST count %d", count, len(fs.OSTs))
	}
	osts := make([]int, count)
	for i := 0; i < count; i++ {
		osts[i] = (fs.nextOST + i) % len(fs.OSTs)
	}
	fs.nextOST = (fs.nextOST + count) % len(fs.OSTs)
	return osts, stripeSize, nil
}

// Exists reports whether a file name is known (no simulated cost).
func (fs *FileSystem) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Size returns the current size of the file.
func (f *File) Size() int64 { return f.size }

// StripeOSTs returns the OST indices the file stripes over.
func (f *File) StripeOSTs() []int { return append([]int(nil), f.osts...) }

// ostForStripe maps a stripe index to the owning OST index.
func (f *File) ostForStripe(stripeIdx int64) int {
	return f.osts[int(stripeIdx%int64(len(f.osts)))]
}

// chunk is one contiguous piece of a write destined for a single OST.
type chunk struct {
	ost   int
	bytes int64
}

// appendChunks decomposes a [offset, offset+length) write into per-stripe
// chunks appended to dst (reusing its capacity: the client ops hold a
// scratch chunk list per client), merging consecutive chunks on the same
// OST, then coarsening to at most MaxChunksPerOp pieces (the coarsening
// keeps per-OST byte totals approximately proportional; it exists to bound
// event counts on terabyte writes and is bypassed for single-OST files).
func (f *File) appendChunks(dst []chunk, offset, length int64) []chunk {
	if length <= 0 {
		return dst
	}
	if len(f.osts) == 1 {
		return append(dst, chunk{ost: f.osts[0], bytes: length})
	}
	base := len(dst)
	pos := offset
	end := offset + length
	for pos < end {
		sIdx := pos / f.stripe
		sEnd := (sIdx + 1) * f.stripe
		if sEnd > end {
			sEnd = end
		}
		o := f.ostForStripe(sIdx)
		n := sEnd - pos
		if len(dst) > base && dst[len(dst)-1].ost == o {
			dst[len(dst)-1].bytes += n
		} else {
			dst = append(dst, chunk{ost: o, bytes: n})
		}
		pos = sEnd
	}
	max := f.fs.Cfg.MaxChunksPerOp
	if max > 0 && len(dst)-base > max {
		coarse := coarsen(dst[base:], max)
		dst = append(dst[:base], coarse...)
	}
	return dst
}

// coarsen merges neighbouring chunks until at most max remain, assigning
// each merged chunk to the OST that contributed the most bytes.
func coarsen(in []chunk, max int) []chunk {
	groups := max
	out := make([]chunk, 0, groups)
	per := int(math.Ceil(float64(len(in)) / float64(groups)))
	for i := 0; i < len(in); i += per {
		j := i + per
		if j > len(in) {
			j = len(in)
		}
		byOST := map[int]int64{}
		var total int64
		for _, c := range in[i:j] {
			byOST[c.ost] += c.bytes
			total += c.bytes
		}
		best, bestBytes := in[i].ost, int64(-1)
		// Deterministic winner: iterate sorted keys.
		keys := make([]int, 0, len(byOST))
		for k := range byOST {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if byOST[k] > bestBytes {
				best, bestBytes = k, byOST[k]
			}
		}
		out = append(out, chunk{ost: best, bytes: total})
	}
	return out
}

// TotalBytesDrained sums drained bytes across all OSTs (diagnostics).
func (fs *FileSystem) TotalBytesDrained() float64 {
	var t float64
	for _, o := range fs.OSTs {
		o.advance()
		t += o.drainedTotal
	}
	return t
}

// TotalBytesIngested sums accepted bytes across all OSTs (diagnostics).
func (fs *FileSystem) TotalBytesIngested() float64 {
	var t float64
	for _, o := range fs.OSTs {
		o.advance()
		t += o.ingestedTotal
	}
	return t
}
