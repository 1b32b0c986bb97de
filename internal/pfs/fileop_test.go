package pfs

import (
	"testing"
	"unsafe"

	"repro/internal/simkernel"
)

// TestFileOpReuseAcrossKinds drives one FileOp value through every kind in
// turn — create, write, flush, read, close, a failed open, then a good one
// — and checks each kind's result, and that neither Err nor File carries
// over from the kind before it.
func TestFileOpReuseAcrossKinds(t *testing.T) {
	const n = 500
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	op := new(FileOp)
	var f *File
	steps := 0
	step := func(arm, check func()) simkernel.Cont {
		return drive(func() simkernel.Cont { arm(); return op }, func() { steps++; check() })
	}
	k.SpawnCont(run(
		step(func() { op.BeginCreate(fs, "a", Layout{OSTs: []int{0}}) }, func() {
			f = op.File()
			if op.Err() != nil || f == nil || !fs.Exists("a") {
				t.Errorf("create: file %v, err %v", f, op.Err())
			}
		}),
		step(func() { op.BeginWrite(f, 0, n) }, func() {
			if op.Err() != nil || f.Size() != n || op.File() != f {
				t.Errorf("write: size %d, err %v", f.Size(), op.Err())
			}
		}),
		step(func() { op.BeginFlush(f) }, func() {
			if lvl := fs.OSTs[0].CacheLevel(); op.Err() != nil || lvl > completionEps {
				t.Errorf("flush: cache level %g, err %v", lvl, op.Err())
			}
		}),
		step(func() { op.BeginRead(f, 0, n) }, func() {
			if io := fs.OSTs[0].JobIO(0); op.Err() != nil || io.BytesRead != n || io.ReadOps != 1 {
				t.Errorf("read: %+v, err %v", io, op.Err())
			}
		}),
		step(func() { op.BeginClose(f) }, func() {
			if op.Err() != nil || !f.closed {
				t.Errorf("close: closed %v, err %v", f.closed, op.Err())
			}
		}),
		step(func() { op.BeginOpen(fs, "missing") }, func() {
			if op.Err() == nil || op.File() != nil {
				t.Errorf("open of a missing name: file %v, err %v", op.File(), op.Err())
			}
		}),
		step(func() { op.BeginOpen(fs, "a") }, func() {
			g := op.File()
			if op.Err() != nil || g == nil || g == f || g.closed || g.Size() != n {
				t.Errorf("open: file %v, err %v", g, op.Err())
			}
		}),
	))
	k.Run()
	k.Shutdown()
	if steps != 7 {
		t.Fatalf("%d of 7 operations completed", steps)
	}
	if got := fs.MDS.Stats.OpsServed; got != 4 {
		t.Fatalf("MDS ops served = %d, want 4 (create, close, two opens)", got)
	}
}

// TestFileOpFlushFieldsFirst pins FileOp's layout on 64-bit platforms: a
// flush wakeup enters the op directly, so every field the flush path reads
// (kind, started, i, f, fw, pending) lies in the op's first 64 bytes, and
// the op stays 224 bytes.
func TestFileOpFlushFieldsFirst(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("offsets are pinned for 64-bit platforms")
	}
	var op FileOp
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"kind", unsafe.Offsetof(op.kind), unsafe.Sizeof(op.kind)},
		{"started", unsafe.Offsetof(op.started), unsafe.Sizeof(op.started)},
		{"i", unsafe.Offsetof(op.i), unsafe.Sizeof(op.i)},
		{"f", unsafe.Offsetof(op.f), unsafe.Sizeof(op.f)},
		{"fw", unsafe.Offsetof(op.fw), unsafe.Sizeof(op.fw)},
		{"pending", unsafe.Offsetof(op.pending), unsafe.Sizeof(op.pending)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("FileOp.%s spans bytes %d–%d, want it within the first 64", f.name, f.off, end)
		}
	}
	if got := unsafe.Sizeof(op); got != 224 {
		t.Fatalf("FileOp is %d bytes, want 224", got)
	}
}
