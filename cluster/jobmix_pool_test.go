package cluster

import (
	"testing"

	"repro/internal/pfs"
)

// TestJobMixZeroAlloc extends TestWorldReuseZeroAlloc to multi-application
// worlds: a steady-state rent → register jobs → run job-tagged traffic →
// return cycle allocates nothing, per-job accounting included (the
// attribution slices grow once and are truncated, not freed, on reset).
func TestJobMixZeroAlloc(t *testing.T) {
	p := NewPool()
	defer p.Close()
	cfg := Config{Seed: 42, NumOSTs: 4}

	var writes [4]pfs.OSTWriteOp
	var metas [2]pfs.MDSOp
	cycle := func() {
		c, err := p.Rent("xtp", cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs := c.FileSystem()
		writer := fs.RegisterJob("writer")
		storm := fs.RegisterJob("storm")
		k := c.Kernel()
		for i := range writes {
			writes[i].Begin(fs.OST(i), 1000)
			k.SpawnContJob(writer, &writes[i])
		}
		for i := range metas {
			metas[i].Begin(fs.MDS)
			k.SpawnContJob(storm, &metas[i])
		}
		k.Run()
		if got := fs.JobIO(writer).BytesWritten; got != 4000 {
			t.Fatalf("writer job accounted %g bytes, want 4000", got)
		}
		if got := fs.JobIO(storm).MetaOps; got != 2 {
			t.Fatalf("storm job accounted %d metadata ops, want 2", got)
		}
		p.Return(c)
	}
	cycle() // builds the world and grows the attribution slices
	cycle() // warms the reuse path
	got := testing.AllocsPerRun(100, cycle)
	if got != 0 {
		t.Fatalf("job-mix rent/run/reset/return cycle allocates %v allocs/op in steady state; want 0", got)
	}
}
