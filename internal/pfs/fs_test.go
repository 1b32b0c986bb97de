package pfs

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simkernel"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumOSTs != 512 || c.MaxStripeCount != 160 || c.DefaultStripeCount != 4 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.DiskBW != 180*MB || c.CacheBytes != 2*GB {
		t.Fatalf("unexpected bandwidth defaults: %+v", c)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []Config{
		{CacheBytes: -1},
		{WriteLatency: -1},
		{DefaultStripeCount: 200, MaxStripeCount: 160},
		{MaxChunksPerOp: -1},
		{MDSServiceCV: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestLayoutResolutionRoundRobin(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 6
	cfg.MaxStripeCount = 4
	cfg.DefaultStripeCount = 2
	fs := MustNew(k, cfg)
	var f1, f2 *File
	k.SpawnCont(run(
		create(fs, "a", Layout{}, &f1, nil),
		create(fs, "b", Layout{}, &f2, nil),
	))
	k.Run()
	k.Shutdown()
	if got := f1.StripeOSTs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("file a osts = %v", got)
	}
	if got := f2.StripeOSTs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("file b osts = %v", got)
	}
}

func TestLayoutErrors(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 8
	cfg.MaxStripeCount = 4
	fs := MustNew(k, cfg)
	var errs []error
	var f *File
	var e1, e2, e3 error
	k.SpawnCont(run(
		create(fs, "x", Layout{StripeCount: 5}, &f, &e1),
		create(fs, "y", Layout{OSTs: []int{0, 1, 2, 3, 4}}, &f, &e2),
		create(fs, "z", Layout{OSTs: []int{99}}, &f, &e3),
		do(func() { errs = append(errs, e1, e2, e3) }),
	))
	k.Run()
	k.Shutdown()
	for i, e := range errs {
		if e == nil {
			t.Errorf("layout error case %d: expected error", i)
		}
	}
}

func TestStripeCountExceedingOSTs(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 2
	cfg.MaxStripeCount = 160
	fs := MustNew(k, cfg)
	var err error
	var f *File
	k.SpawnCont(run(create(fs, "x", Layout{StripeCount: 3}, &f, &err)))
	k.Run()
	k.Shutdown()
	if err == nil {
		t.Fatal("expected error for stripe count > OST count")
	}
}

func TestChunksForConservesBytesProperty(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 16
	cfg.MaxChunksPerOp = 8
	fs := MustNew(k, cfg)
	var f *File
	k.SpawnCont(run(create(fs, "f", Layout{OSTs: []int{1, 3, 5, 7}, StripeSize: 64}, &f, nil)))
	k.Run()
	k.Shutdown()

	prop := func(off16, len24 uint32) bool {
		offset := int64(off16 % 4096)
		length := int64(len24%100000) + 1
		var total int64
		chunks := f.appendChunks(nil, offset, length)
		if len(chunks) > cfg.MaxChunksPerOp {
			return false
		}
		for _, c := range chunks {
			if c.bytes <= 0 {
				return false
			}
			valid := false
			for _, o := range f.osts {
				if c.ost == o {
					valid = true
				}
			}
			if !valid {
				return false
			}
			total += c.bytes
		}
		return total == length
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksForSingleOSTFastPath(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var f *File
	k.SpawnCont(run(create(fs, "f", Layout{OSTs: []int{2}}, &f, nil)))
	k.Run()
	k.Shutdown()
	chunks := f.appendChunks(nil, 0, 1<<30)
	if len(chunks) != 1 || chunks[0].ost != 2 || chunks[0].bytes != 1<<30 {
		t.Fatalf("single-OST chunks = %+v", chunks)
	}
	if f.appendChunks(nil, 0, 0) != nil {
		t.Fatal("zero-length write should produce no chunks")
	}
}

func TestChunksForExactStripeRotation(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.MaxChunksPerOp = 100
	fs := MustNew(k, cfg)
	var f *File
	k.SpawnCont(run(create(fs, "f", Layout{OSTs: []int{0, 1, 2}, StripeSize: 10}, &f, nil)))
	k.Run()
	k.Shutdown()
	// 35 bytes from offset 5: stripes 0(5B),1(10B),2(10B),3(10B) →
	// OSTs 0,1,2,0.
	chunks := f.appendChunks(nil, 5, 35)
	want := []chunk{{0, 5}, {1, 10}, {2, 10}, {0, 10}}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %+v", chunks)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunk %d = %+v, want %+v", i, chunks[i], want[i])
		}
	}
}

func TestCoarsenBoundsAndConserves(t *testing.T) {
	in := make([]chunk, 100)
	var total int64
	for i := range in {
		in[i] = chunk{ost: i % 7, bytes: int64(i + 1)}
		total += int64(i + 1)
	}
	out := coarsen(in, 10)
	if len(out) > 10 {
		t.Fatalf("coarsen produced %d chunks", len(out))
	}
	var got int64
	for _, c := range out {
		got += c.bytes
	}
	if got != total {
		t.Fatalf("coarsen lost bytes: %d vs %d", got, total)
	}
}

func TestWriteAtUpdatesSizeAndFlushCompletes(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 500
	fs := MustNew(k, cfg)
	var size int64
	var f *File
	var err error
	k.SpawnCont(run(
		create(fs, "out", Layout{OSTs: []int{0, 1}, StripeSize: 100}, &f, &err),
		stopIf(func() bool {
			if err != nil {
				t.Error(err)
				return true
			}
			return false
		}),
		writeAt(&f, 0, 450, nil),
		flush(&f),
		closeFile(&f),
		do(func() { size = f.Size() }),
	))
	k.Run()
	k.Shutdown()
	if size != 450 {
		t.Fatalf("size = %d, want 450", size)
	}
	ing := fs.TotalBytesIngested()
	dr := fs.TotalBytesDrained()
	if math.Abs(ing-450) > 1e-3 || math.Abs(dr-450) > 1e-3 {
		t.Fatalf("ingested/drained = %v/%v, want 450", ing, dr)
	}
}

func TestAppendAdvancesOffset(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var offs []int64
	var f *File
	steps := []simkernel.Cont{create(fs, "log", Layout{OSTs: []int{0}}, &f, nil)}
	for _, n := range []int64{100, 50, 25} {
		var off int64
		var err error
		steps = append(steps, appendTo(&f, n, &off, &err), do(func() {
			if err != nil {
				t.Errorf("Append(%d): %v", n, err)
			}
			offs = append(offs, off)
		}))
	}
	k.SpawnCont(run(steps...))
	k.Run()
	k.Shutdown()
	if offs[0] != 0 || offs[1] != 100 || offs[2] != 150 {
		t.Fatalf("append offsets = %v", offs)
	}
}

func TestOpenMissingFileErrors(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var err error
	var f *File
	k.SpawnCont(run(open(fs, "ghost", &f, &err)))
	k.Run()
	k.Shutdown()
	if err == nil {
		t.Fatal("expected error opening missing file")
	}
}

func TestOpenExistingSeesMasterSize(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var size int64
	var f, g *File
	var err error
	k.SpawnCont(run(
		create(fs, "data", Layout{OSTs: []int{0}}, &f, nil),
		writeAt(&f, 0, 200, nil),
		closeFile(&f),
		open(fs, "data", &g, &err),
		stopIf(func() bool {
			if err != nil {
				t.Error(err)
				return true
			}
			return false
		}),
		do(func() { size = g.Size() }),
		closeFile(&g),
	))
	k.Run()
	k.Shutdown()
	if size != 200 {
		t.Fatalf("reopened size = %d, want 200", size)
	}
	if !fs.Exists("data") || fs.Exists("ghost") {
		t.Fatal("Exists misreports")
	}
}

// TestStaleHandleAfterRecreate pins what a write through a stale handle
// grows: a handle writes to the file it was created or opened on, so after
// its name is re-created the write leaves the new file's size untouched.
func TestStaleHandleAfterRecreate(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var old, fresh, reopened *File
	var err error
	var size int64
	k.SpawnCont(run(
		create(fs, "a", Layout{OSTs: []int{0}}, &old, nil),
		writeAt(&old, 0, 100, nil),
		create(fs, "a", Layout{OSTs: []int{1}}, &fresh, nil),
		writeAt(&old, 100, 400, nil),
		open(fs, "a", &reopened, &err),
		do(func() { size = reopened.Size() }),
	))
	k.Run()
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 || fresh.Size() != 0 {
		t.Fatalf("re-created file size = %d (handle %d), want 0: the stale handle's write leaked into it", size, fresh.Size())
	}
	if old.Size() != 500 {
		t.Fatalf("stale handle size = %d, want 500", old.Size())
	}
}

// flushProbe drives a flush and records the target holding a flush waiter
// — the one the walk waits on, since nothing else in these tests flushes —
// so a test sees the visit order from the outside. A walk that parks steps
// the op only where it starts and where it ends, and hops between targets
// on its own, so the probe looks when the op first parks and at every
// target's boundary event, before the event advances the target: a wait
// ends when its target drains to the watermark, at a boundary, so each
// wait is seen there at the latest. The probe counts the op's steps too.
type flushProbe struct {
	fs      *FileSystem
	f       **File
	op      FileOp
	armed   bool
	begun   *simkernel.Signal // broadcast once the flush is armed (nil: none)
	waited  []int
	opSteps int
}

// newFlushProbe builds a probe flushing *f and hooks it into the boundary
// events of every target of fs.
func newFlushProbe(fs *FileSystem, f **File, begun *simkernel.Signal) *flushProbe {
	p := &flushProbe{fs: fs, f: f, begun: begun}
	for _, o := range fs.OSTs {
		boundary := o.onBoundary
		o.onBoundary = func() {
			p.look()
			boundary()
		}
	}
	return p
}

// look records every target holding a flush waiter, unless it is the one
// recorded last.
func (p *flushProbe) look() {
	for id, o := range p.fs.OSTs {
		if o.waiters.Len() > 0 && (len(p.waited) == 0 || p.waited[len(p.waited)-1] != id) {
			p.waited = append(p.waited, id)
		}
	}
}

func (p *flushProbe) Step(c *simkernel.ContProc) bool {
	if !p.armed {
		p.op.BeginFlush(*p.f)
		p.armed = true
		if p.begun != nil {
			p.begun.Broadcast()
		}
	}
	p.opSteps++
	if p.op.Step(c) {
		return true
	}
	p.look()
	return false
}

// probing is a script step that runs p with ContProc.Call.
func probing(p *flushProbe) simkernel.Cont {
	return drive(func() simkernel.Cont { return p }, func() {})
}

// TestFlushTouchedSharedAcrossHandles pins the touched-OST set's sharing and
// order: a handle copy made by an open records its writes in the same set as
// the creating handle, so a flush through the creator waits on exactly the
// targets the copy wrote to, in ascending id order whatever the write order.
// OST 9 gets three times OST 5's bytes, so it is still dirty when the flush
// reaches it: a descending walk would find OST 5 drained and park on OST 9
// alone.
func TestFlushTouchedSharedAcrossHandles(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 10
	cfg.ClientCap = 500
	fs := MustNew(k, cfg)
	var f, g *File
	var err error
	probe := newFlushProbe(fs, &f, nil)
	k.SpawnCont(run(
		create(fs, "shared", Layout{OSTs: []int{9, 2, 5}, StripeSize: 64}, &f, &err),
		open(fs, "shared", &g, &err),
		stopIf(func() bool {
			if err != nil {
				t.Error(err)
				return true
			}
			return false
		}),
		writeAt(&g, 0, 64, nil),   // stripe 0: OST 9
		writeAt(&g, 128, 64, nil), // stripe 2: OST 5
		writeAt(&g, 192, 64, nil), // stripe 3: OST 9
		writeAt(&g, 384, 64, nil), // stripe 6: OST 9
		probing(probe),
	))
	k.Run()
	k.Shutdown()
	if want := []int{5, 9}; !slices.Equal(probe.waited, want) {
		t.Fatalf("flush through the creating handle waits on OSTs %v, want %v", probe.waited, want)
	}
	for _, id := range []int{5, 9} {
		if lvl := fs.OST(id).CacheLevel(); lvl > completionEps {
			t.Errorf("OST %d still holds %v dirty bytes after the flush", id, lvl)
		}
	}
	if got := fs.OST(2).Stats.BytesIngested; got != 0 {
		t.Errorf("OST 2 ingested %v bytes; the copy never wrote there", got)
	}
}

// TestFlushSnapshotsTouchedSet pins when a flush fixes its target set: at
// BeginFlush. A second handle that first writes to OST 1 while the flush
// still waits on OST 0 must not extend it — a walk of the live touched set
// would find OST 1's bit and wait for its slow drain too.
func TestFlushSnapshotsTouchedSet(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 500
	fs := MustNew(k, cfg)
	var f, g *File
	var err error
	begun := new(simkernel.Signal)
	probe := newFlushProbe(fs, &f, begun)
	var flushed simkernel.Time
	var dirty1 float64
	k.SpawnCont(run(
		create(fs, "snap", Layout{OSTs: []int{0, 1}, StripeSize: 1024}, &f, &err),
		open(fs, "snap", &g, &err),
		writeAt(&f, 0, 64, nil), // stripe 0: OST 0
		probing(probe),
		stepFunc(func(c *simkernel.ContProc) bool {
			flushed = c.Now()
			dirty1 = fs.OST(1).CacheLevel()
			return true
		}),
	))
	k.SpawnCont(run(
		stepFunc(begun.WaitCont),
		writeAt(&g, 1024, 512, nil), // stripe 1: OST 1, after BeginFlush
	))
	k.Run()
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(probe.waited, []int{0}) {
		t.Fatalf("flush waited on OSTs %v, want [0]: OST 1 was first written after BeginFlush", probe.waited)
	}
	if flushed == 0 || dirty1 <= completionEps {
		t.Fatalf("flush completed at %v with %v dirty bytes on OST 1; it must finish while OST 1 is still dirty", flushed, dirty1)
	}
	if got := fs.OST(1).Stats.BytesIngested; got != 512 {
		t.Fatalf("OST 1 ingested %v bytes, want the second handle's 512", got)
	}
}

// TestFlushHopsSkipOp pins where a parked flush's wakeups go: a flush that
// waits on each of four targets in turn steps its FileOp twice, where the
// walk starts and where it ends. A walk that woke the op at every target
// would step it five times, once per target plus the first.
func TestFlushHopsSkipOp(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 500
	fs := MustNew(k, cfg)
	// Each target drains slower than the one below it, so the walk finds
	// every one still dirty when it gets there.
	for i, o := range fs.OSTs {
		o.SetSlowFactor(1 / float64(2+i))
	}
	var f *File
	var err error
	probe := newFlushProbe(fs, &f, nil)
	k.SpawnCont(run(
		create(fs, "wide", Layout{OSTs: []int{0, 1, 2, 3}, StripeSize: 64}, &f, &err),
		writeAt(&f, 0, 4*64, &err),
		probing(probe),
	))
	k.Run()
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(probe.waited, want) {
		t.Fatalf("flush waited on OSTs %v, want %v", probe.waited, want)
	}
	if probe.opSteps != 2 {
		t.Fatalf("a flush parked at %d targets stepped its op %d times, want 2", len(probe.waited), probe.opSteps)
	}
}

// TestFlushCohortsWalkOnce pins flush cohorts. 256 processes flush one file
// striped over eight dirty targets in one instant, then 16 flush a second
// file on the first target alone. At that target both sets park at one
// watermark, but their snapshots differ, so the queue holds two waiters:
// the first file's 256 flushes in one cohort, then the second file's 16.
// One drain releases both, in FIFO order: the first cohort's leader walks
// on to the next target, and the second cohort's, with nothing left to
// visit, resumes its members right after. From there the first cohort
// waits on one target at a time as one waiter, so the waiting fires one
// hop and one boundary event per target, not one hop per flush per target
// (2,072 events without cohorts), and its processes return in the order
// they began.
func TestFlushCohortsWalkOnce(t *testing.T) {
	const (
		flushers = 256
		others   = 16
		targets  = 8
	)
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = targets
	cfg.MaxStripeCount = targets
	cfg.ClientCap = 500
	fs := MustNew(k, cfg)
	// Each target drains slower than the one below it, so the walk finds
	// every one still dirty when it gets there.
	for i, o := range fs.OSTs {
		o.SetSlowFactor(1 / float64(2+i))
	}
	var f, g *File
	var err error
	wide := Layout{OSTs: []int{0, 1, 2, 3, 4, 5, 6, 7}, StripeSize: 1024}
	k.SpawnCont(run(
		create(fs, "wide", wide, &f, &err),
		create(fs, "narrow", Layout{OSTs: []int{0}}, &g, &err),
	))
	k.Run()
	for i := range targets {
		k.SpawnCont(run(writeAt(&f, int64(i)*1024, 256, &err)))
	}
	k.SpawnCont(run(writeAt(&g, 0, 64, &err)))
	start := k.Now() + simkernel.FromSeconds(1)
	k.RunUntil(start - 1)
	if err != nil {
		t.Fatal(err)
	}
	var log []flushReturn
	for i := range flushers + others {
		h := &f
		if i >= flushers {
			h = &g
		}
		k.SpawnContAt(start, &loopFlush{f: h, id: i, rounds: 1, log: &log})
	}
	k.RunUntil(start)
	for i, o := range fs.OSTs {
		if c := o.CacheLevel(); c <= completionEps {
			t.Fatalf("OST %d holds %v dirty bytes when the flushes begin; the test needs every target dirty", i, c)
		}
	}
	q := &fs.OSTs[0].waiters
	if q.Len() != 2 || cohortLen(q.Front().hop) != flushers || cohortLen(q.Back().hop) != others {
		t.Fatalf("OST 0 queues %d waiters; want a cohort of %d, then one of %d", q.Len(), flushers, others)
	}
	fired := k.Fired()
	// Step the clock without adding events, and look at every queue: it
	// holds the first file's cohort or nothing, and OST 0 the second
	// file's behind it until one drain releases both.
	for now := start; k.Pending() > 0; now += simkernel.FromSeconds(0.05) {
		k.RunUntil(now)
		for i, o := range fs.OSTs {
			q := &o.waiters
			n := q.Len()
			if n > 0 && cohortLen(q.Front().hop) != flushers || n == 2 && (i != 0 || cohortLen(q.Back().hop) != others) || n > 2 {
				t.Fatalf("at %v OST %d queues %d waiters; want one cohort of %d", now, i, n, flushers)
			}
		}
	}
	if len(log) != flushers+others {
		t.Fatalf("%d of %d flushes returned", len(log), flushers+others)
	}
	for i, r := range log {
		first := 0 // the return that opens r's file's instant
		if i >= others {
			first = others
		}
		if want := (i + flushers) % (flushers + others); r.flusher != want || r.at != log[first].at {
			t.Fatalf("return %d was flush %d at %v, want flush %d: the second file's flushes in one instant, then the first file's in a later one, each in the order they began", i, r.flusher, r.at, want)
		}
	}
	if log[0].at >= log[others].at {
		t.Fatalf("the second file's flushes returned at %v, the first file's at %v; want the second file's first", log[0].at, log[others].at)
	}
	if n := k.Fired() - fired; n > 2*targets+1 {
		t.Fatalf("the waits fired %d events; want at most %d: a hop and a boundary per target, and the second cohort's hop", n, 2*targets+1)
	}
	k.Shutdown()
}

func TestWriteToClosedFilePanics(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	panicked := false
	var f *File
	k.SpawnCont(run(
		create(fs, "c", Layout{OSTs: []int{0}}, &f, nil),
		closeFile(&f),
		do(func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			var op FileOp
			op.BeginWrite(f, 0, 10)
		}),
	))
	k.Run()
	k.Shutdown()
	if !panicked {
		t.Fatal("expected panic writing to closed file")
	}
}

func TestMDSQueueing(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.MDSCapacity = 1
	cfg.MDSServiceMean = 1.0
	cfg.MDSServiceCV = 1e-9 // effectively deterministic service
	fs := MustNew(k, cfg)
	var lastDone float64
	for i := 0; i < 4; i++ {
		k.SpawnCont(run(
			metaOp(fs.MDS),
			do(func() {
				if at := k.Now().Seconds(); at > lastDone {
					lastDone = at
				}
			}),
		))
	}
	k.Run()
	k.Shutdown()
	// Four serialized ~1s ops on a capacity-1 MDS finish near t=4.
	if lastDone < 3.5 || lastDone > 4.5 {
		t.Fatalf("last MDS op at %v, want ~4", lastDone)
	}
	if fs.MDS.Stats.OpsServed != 4 {
		t.Fatalf("ops served = %d", fs.MDS.Stats.OpsServed)
	}
	if fs.MDS.Stats.MaxQueue == 0 {
		t.Fatal("expected queueing at the MDS")
	}
}

func TestReadAtTakesTime(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 50
	fs := MustNew(k, cfg)
	var at, start float64
	var f *File
	k.SpawnCont(run(
		create(fs, "in", Layout{OSTs: []int{0}}, &f, nil),
		writeAt(&f, 0, 500, nil),
		do(func() { start = k.Now().Seconds() }),
		readAt(&f, 0, 500, nil),
		do(func() { at = k.Now().Seconds() - start }),
	))
	k.Run()
	k.Shutdown()
	if at < 5 { // 500 bytes at ≤100 B/s disk, capped at 50 → ≥10s; allow slack
		t.Fatalf("read took %v s, expected noticeable time", at)
	}
}

func TestFilesystemDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		k := simkernel.New()
		cfg := flatConfig()
		cfg.Seed = 99
		fs := MustNew(k, cfg)
		var t1, t2 float64
		var fa, fb *File
		k.SpawnCont(run(
			create(fs, "a", Layout{OSTs: []int{0, 1}, StripeSize: 100}, &fa, nil),
			writeAt(&fa, 0, 1000, nil),
			flush(&fa),
			do(func() { t1 = k.Now().Seconds() }),
		))
		k.SpawnCont(run(
			create(fs, "b", Layout{OSTs: []int{1, 2}, StripeSize: 100}, &fb, nil),
			writeAt(&fb, 0, 800, nil),
			flush(&fb),
			do(func() { t2 = k.Now().Seconds() }),
		))
		k.Run()
		k.Shutdown()
		return t1, t2
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", a1, a2, b1, b2)
	}
}
