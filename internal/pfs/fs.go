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
// owning kernel's handoff discipline, and it is valid until its file
// system's next Reset: the record comes from the file system's arena.
type File struct {
	fs      *FileSystem
	inode   *File // the handle a create made (itself for that handle); writes advance its size
	osts    []int
	stripe  int64
	size    int64
	touched []uint64 // bitset of OST ids written through any handle; shared by the copies an open makes, never resized
	closed  bool
}

// FileSystem is a simulated parallel file system instance. Its namespace
// costs a create nothing beyond the MDS operation: a completed create is
// logged as a (name, inode) pair, and only a lookup (BeginOpen, Exists)
// folds the creates logged since the previous one into the name map.
type FileSystem struct {
	K    *simkernel.Kernel //repro:reset-skip immutable wiring to the owning kernel
	Cfg  Config
	OSTs []*OST
	MDS  *MDS

	rng *rngx.Source
	// files maps a name to its latest inode for the creates in
	// creates[:indexed]; creates logs every completed create of the replica
	// in completion order. See lookup.
	files   map[string]*File
	creates []created
	indexed int
	nextOST int
	// live holds one bit per OST, set while the target may hold flows or
	// dirty bytes (see OST.live); a flush skips targets outside it.
	live []uint64
	// eff tabulates Cfg's DiskEff and NetEff curves by stream count.
	eff effTables
	// jobs names the registered jobs for per-job traffic attribution
	// (ids are index+1; 0 is the unattributed bucket); see jobacct.go.
	jobs []string

	// The replica's arenas: every File record (created inodes and opened
	// handle copies), touched bitset and resolved OST list comes from
	// these, and Reset rewinds them. Nothing is recycled within
	// a replica, so a stale handle never aliases a newer file.
	handles simkernel.Slab[File]
	words   simkernel.Slab[uint64]
	ostIDs  simkernel.Slab[int]

	// hops are the flush walks' records (see flushHop), taken at BeginFlush
	// from freeHops or the slab and returned to freeHops when a walk ends,
	// so a replica that flushes forever carves no more hops than it has
	// flushes armed at once. The slab hands its records out with Reuse, so
	// each hop's snapshot buffer survives Reset.
	hops     simkernel.Slab[flushHop]
	freeHops []*flushHop
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
		MDS:   newMDS(),
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
	fs.eff.reset(&fs.Cfg)
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
		fs.OSTs = append(fs.OSTs, newOST(fs.K, &fs.Cfg, &fs.live, &fs.eff, i))
	}
	if n := (cfg.NumOSTs + 63) / 64; cap(fs.live) < n {
		fs.live = make([]uint64, n)
	} else {
		fs.live = fs.live[:n]
		clear(fs.live)
	}
	// The MDS stream's seed is the master stream's first draw.
	fs.MDS.reset(&fs.Cfg, fs.rng.Int63())
	clear(fs.files)
	fs.creates = fs.creates[:0]
	fs.indexed = 0
	fs.nextOST = 0
	fs.jobs = fs.jobs[:0]
	fs.handles.Reset()
	fs.words.Reset()
	fs.ostIDs.Reset()
	fs.hops.Reset()
	fs.freeHops = fs.freeHops[:0]
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

// resolveLayout turns a Layout into a concrete OST list, taken from the
// replica's arena, and stripe size.
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
		osts := fs.ostIDs.Take(len(l.OSTs))
		copy(osts, l.OSTs)
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
	osts := fs.ostIDs.Take(count)
	for i := range osts {
		osts[i] = (fs.nextOST + i) % len(fs.OSTs)
	}
	fs.nextOST = (fs.nextOST + count) % len(fs.OSTs)
	return osts, stripeSize, nil
}

// created is one completed create: the name and the inode it made.
type created struct {
	name string
	f    *File
}

// lookup returns the latest inode created under name, or nil. It first
// folds the creates logged since the previous lookup into the name map, in
// completion order, so a later create of a name replaces an earlier one.
// A campaign that never looks a name up never builds the map.
func (fs *FileSystem) lookup(name string) *File {
	for _, c := range fs.creates[fs.indexed:] {
		fs.files[c.name] = c.f
	}
	fs.indexed = len(fs.creates)
	return fs.files[name]
}

// Exists reports whether a create of the name has completed (no simulated
// cost). A create still queued at the MDS does not count.
func (fs *FileSystem) Exists(name string) bool {
	return fs.lookup(name) != nil
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
