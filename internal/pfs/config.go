// Package pfs models a petascale parallel file system of the kind the paper
// measures (Lustre on Jaguar and Franklin, PanFS on Sandia's XTP): a set of
// object storage targets (OSTs) with write-back caches and contention-
// sensitive disk bandwidth, a metadata server with a bounded service queue,
// and striped files.
//
// Each OST is a fluid-flow server. Writes are accepted into the OST cache at
// network ingest speed while the cache has room and are throttled to the
// disk drain rate once it fills; the drain rate itself degrades as more
// streams interleave on one target (internal interference) and as external
// load — other jobs, analysis clusters — competes for the same spindles
// (external interference). This reproduces the three regimes visible in the
// paper's Figure 1: cache-absorbed small writes that keep scaling, a
// disk-bound plateau, and an over-contended decline.
package pfs

import (
	"fmt"
	"math"
	"time"
)

// Units for readability in configuration code.
const (
	KB = 1024.0
	MB = 1024.0 * KB
	GB = 1024.0 * MB
	TB = 1024.0 * GB
)

// EffCurve is a parametric efficiency curve eff(n) = 1 / (1 + Alpha*(n-1)^Beta)
// describing how a shared resource's useful bandwidth degrades as n streams
// interleave on it. Alpha sets the strength, Beta the growth of the penalty.
// eff(1) is always 1.
type EffCurve struct {
	Alpha float64
	Beta  float64
}

// Eval returns the efficiency for n concurrent streams (n < 1 is clamped).
func (c EffCurve) Eval(n int) float64 {
	if n <= 1 {
		return 1
	}
	if c.Alpha <= 0 {
		return 1
	}
	return 1 / (1 + c.Alpha*math.Pow(float64(n-1), c.Beta))
}

// effTable memoises one EffCurve over stream counts: vals[n] is
// curve.Eval(n). Eval is a pure function of n, so a lookup is exact; the
// table grows in order on the first count past its end, and reset empties
// it for the next replica's curve.
type effTable struct {
	curve EffCurve
	vals  []float64
}

// reset arms the table for curve c, keeping the backing array.
func (t *effTable) reset(c EffCurve) {
	t.curve = c
	t.vals = t.vals[:0]
}

// at returns curve.Eval(n) for n >= 0.
//
//repro:hotpath
func (t *effTable) at(n int) float64 {
	if n < len(t.vals) {
		return t.vals[n]
	}
	for i := len(t.vals); i <= n; i++ {
		t.vals = append(t.vals, t.curve.Eval(i))
	}
	return t.vals[n]
}

// effTables are a file system's two curve tables. The OSTs reach them
// through a pointer, and FileSystem.Reset re-arms them from Config.
type effTables struct {
	disk, net effTable
}

// reset arms both tables for cfg's curves.
func (t *effTables) reset(cfg *Config) {
	t.disk.reset(cfg.DiskEff)
	t.net.reset(cfg.NetEff)
}

// Config describes a file system instance. Zero values are filled in by
// Validate with defaults modelled on the paper's Jaguar scratch system.
type Config struct {
	// NumOSTs is the number of object storage targets (672 on Jaguar's
	// scratch system; the paper's experiments use 512 of them).
	NumOSTs int

	// DiskBW is the per-OST nominal disk write bandwidth in bytes/second
	// (the paper cites ~180 MB/sec theoretical per storage target).
	DiskBW float64

	// CacheBytes is the per-OST write-back cache capacity (the paper
	// mentions a 2 GB storage-target cache).
	CacheBytes float64

	// IngestBW is the per-OST network-side acceptance bandwidth in
	// bytes/second; cache-regime writes share it.
	IngestBW float64

	// ClientCap is the maximum bandwidth of a single client write stream in
	// bytes/second. A single POSIX stream cannot saturate an OST, which is
	// why aggregate bandwidth initially rises with more writers per target.
	ClientCap float64

	// DiskEff describes how the drain bandwidth degrades with interleaved
	// streams (internal interference on one target).
	DiskEff EffCurve

	// NetEff describes how the ingest bandwidth degrades with concurrent
	// streams (OSS/network contention).
	NetEff EffCurve

	// WriteLatency is the fixed per-write-operation overhead (RPC setup,
	// lock acquisition). It dominates tiny writes.
	WriteLatency time.Duration

	// MaxStripeCount is the file-system limit on OSTs per file (160 for the
	// Lustre 1.6 release the paper measures — the load-bearing constraint
	// for the MPI-IO baseline).
	MaxStripeCount int

	// DefaultStripeCount is the stripe count applied when a file is created
	// without an explicit layout (4 on the paper's Jaguar configuration).
	DefaultStripeCount int

	// StripeSize is the stripe width in bytes (Lustre default 1 MB; Jaguar
	// commonly ran 4 MB).
	StripeSize int64

	// MaxChunksPerOp bounds how many stripe-chunk operations a single
	// client write is decomposed into. Full per-stripe decomposition is
	// exact but produces millions of events for terabyte outputs; bounding
	// it coalesces adjacent stripes into larger model chunks while
	// preserving the concurrency structure. Zero means no bound.
	MaxChunksPerOp int

	// MDSCapacity is the number of metadata operations the MDS services
	// concurrently; additional requests queue FIFO.
	MDSCapacity int

	// MDSServiceMean is the mean metadata service time in seconds, and
	// MDSServiceCV its coefficient of variation (lognormal service).
	MDSServiceMean float64
	MDSServiceCV   float64

	// DeadTimeout is how long (seconds) a client operation against a Dead
	// target hangs before it is abandoned with ErrTargetDown — the
	// client-side RPC timeout. Scenario failure scripts override it.
	DeadTimeout float64

	// Seed drives all stochastic components derived from this file system.
	Seed int64
}

// Validate fills defaults and reports configuration errors.
func (c *Config) Validate() error {
	if c.NumOSTs <= 0 {
		c.NumOSTs = 512
	}
	if c.DiskBW <= 0 {
		c.DiskBW = 180 * MB
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("pfs: negative cache size")
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 2 * GB
	}
	if c.IngestBW <= 0 {
		c.IngestBW = 400 * MB
	}
	if c.ClientCap <= 0 {
		c.ClientCap = 55 * MB
	}
	if c.DiskEff == (EffCurve{}) {
		c.DiskEff = EffCurve{Alpha: 0.030, Beta: 1.05}
	}
	if c.NetEff == (EffCurve{}) {
		c.NetEff = EffCurve{Alpha: 0.004, Beta: 1.1}
	}
	if c.WriteLatency < 0 {
		return fmt.Errorf("pfs: negative write latency")
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = 2 * time.Millisecond
	}
	if c.MaxStripeCount <= 0 {
		c.MaxStripeCount = 160
	}
	if c.DefaultStripeCount <= 0 {
		c.DefaultStripeCount = 4
	}
	if c.DefaultStripeCount > c.MaxStripeCount {
		return fmt.Errorf("pfs: default stripe count %d exceeds max %d",
			c.DefaultStripeCount, c.MaxStripeCount)
	}
	if c.StripeSize <= 0 {
		c.StripeSize = 4 * 1024 * 1024
	}
	if c.MaxChunksPerOp < 0 {
		return fmt.Errorf("pfs: negative MaxChunksPerOp")
	}
	if c.MaxChunksPerOp == 0 {
		c.MaxChunksPerOp = 16
	}
	if c.MDSCapacity <= 0 {
		c.MDSCapacity = 16
	}
	if c.MDSServiceMean <= 0 {
		c.MDSServiceMean = 0.005
	}
	if c.MDSServiceCV < 0 {
		return fmt.Errorf("pfs: negative MDS service CV")
	}
	if c.MDSServiceCV == 0 {
		c.MDSServiceCV = 0.6
	}
	if c.DeadTimeout < 0 {
		return fmt.Errorf("pfs: negative dead timeout")
	}
	if c.DeadTimeout == 0 {
		c.DeadTimeout = 30
	}
	return nil
}
