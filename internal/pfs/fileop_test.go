package pfs

import (
	"errors"
	"fmt"
	"math"
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

// TestFileOpFlushFieldsFirst pins FileOp's layout on 64-bit platforms: the
// fields a flush's first and last steps read (kind, pc, f, hop), and the
// chunk cursor i beside them, lie in the op's first 64 bytes, and the op
// stays 152 bytes.
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
		{"pc", unsafe.Offsetof(op.pc), unsafe.Sizeof(op.pc)},
		{"i", unsafe.Offsetof(op.i), unsafe.Sizeof(op.i)},
		{"f", unsafe.Offsetof(op.f), unsafe.Sizeof(op.f)},
		{"hop", unsafe.Offsetof(op.hop), unsafe.Sizeof(op.hop)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("FileOp.%s spans bytes %d–%d, want it within the first 64", f.name, f.off, end)
		}
	}
	if got := unsafe.Sizeof(op); got != 152 {
		t.Fatalf("FileOp is %d bytes, want 152", got)
	}
}

// commitOutcome is what persisting an index leaves behind.
type commitOutcome struct {
	at      simkernel.Time // when the last op completed
	err     error
	ost     OSTStats
	served  int  // MDS operations served
	closed  bool // the handle's state
	waiters int  // flush waiters still queued on the target
}

// runCommit writes 600 bytes to a file on target 0, kills the target if
// dead, then persists a 300-byte index at the file's end: with one
// BeginCommit if commit, otherwise with the three ops it stands for, an
// append, a flush unless the append failed, and a close.
func runCommit(dead, commit bool) commitOutcome {
	cfg := flatConfig()
	cfg.DeadTimeout = 2
	cfg.ClientCap = cfg.IngestBW // ingest outruns the disk, so the target dies dirty
	k := simkernel.New()
	fs := MustNew(k, cfg)
	o := fs.OSTs[0]
	var f *File
	var out commitOutcome
	op := new(FileOp)
	steps := []simkernel.Cont{
		create(fs, "idx", Layout{OSTs: []int{0}}, &f, nil),
		writeAt(&f, 0, 600, nil),
		do(func() {
			if dead {
				o.SetHealth(Dead, 1)
			}
		}),
	}
	if commit {
		steps = append(steps, drive(func() simkernel.Cont { op.BeginCommit(f, 300); return op },
			func() { out.err = op.Err() }))
	} else {
		steps = append(steps,
			drive(func() simkernel.Cont { op.BeginWrite(f, f.Size(), 300); return op },
				func() { out.err = op.Err() }),
			drive(func() simkernel.Cont {
				if out.err != nil {
					return do(func() {})
				}
				op.BeginFlush(f)
				return op
			}, func() {}),
			closeFile(&f))
	}
	steps = append(steps, do(func() { out.at = k.Now() }))
	k.SpawnCont(run(steps...))
	k.Run()
	k.Shutdown()
	out.ost = o.Stats
	out.served = fs.MDS.Stats.OpsServed
	out.closed = f.closed
	out.waiters = o.waiters.Len()
	return out
}

// TestBeginCommitMatchesThreeOps runs BeginCommit against the append,
// flush and close it replaces, on a twin file system each, against a
// healthy and a dead target: the completion time, error, target counters,
// MDS operations and the handle's state must match.
func TestBeginCommitMatchesThreeOps(t *testing.T) {
	for _, dead := range []bool{false, true} {
		got, want := runCommit(dead, true), runCommit(dead, false)
		if got.at != want.at || fmt.Sprint(got.err) != fmt.Sprint(want.err) || got.ost != want.ost ||
			got.served != want.served || got.closed != want.closed || got.waiters != want.waiters {
			t.Errorf("dead=%v: commit %+v, three ops %+v", dead, got, want)
		}
		if !got.closed || got.served != 2 || got.waiters != 0 {
			t.Errorf("dead=%v: closed %v, %d MDS ops served, %d flush waiters; want closed, 2 (create, close), 0",
				dead, got.closed, got.served, got.waiters)
		}
		if dead {
			if !errors.Is(got.err, ErrTargetDown) || got.ost.WritesFailed != 1 {
				t.Errorf("dead target: err %v, %d writes failed; want ErrTargetDown, 1", got.err, got.ost.WritesFailed)
			}
		} else if got.err != nil || math.Abs(got.ost.BytesDrained-900) > completionEps {
			t.Errorf("healthy target: err %v, %g bytes drained; want nil, 900", got.err, got.ost.BytesDrained)
		}
	}
}
