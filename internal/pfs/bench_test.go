package pfs

import (
	"fmt"
	"testing"

	"repro/internal/simkernel"
)

// BenchmarkOSTFluidUpdates measures the fluid model's cost under heavy
// concurrent membership churn: many flows joining and completing on one
// target.
func BenchmarkOSTFluidUpdates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := flatConfig()
		cfg.ClientCap = 400
		k := simkernel.New()
		fs := MustNew(k, cfg)
		for j := 0; j < 64; j++ {
			k.SpawnContAt(simkernel.Time(j), "w", run(ostWrite(fs.OST(0), float64(100+j), nil)))
		}
		k.Run()
		k.Shutdown()
	}
}

// BenchmarkStripedWrite measures chunked writes across a striped file.
func BenchmarkStripedWrite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := simkernel.New()
		cfg := flatConfig()
		cfg.NumOSTs = 16
		cfg.MaxChunksPerOp = 16
		fs := MustNew(k, cfg)
		var f *File
		var err error
		k.SpawnCont("w", run(
			create(fs, "bench", Layout{StripeCount: 8, StripeSize: 1 << 16}, &f, &err),
			stopIf(func() bool {
				if err != nil {
					b.Error(err)
					return true
				}
				return false
			}),
			writeAt(&f, 0, 1<<22, nil),
			flush(&f),
			closeFile(&f),
		))
		k.Run()
		k.Shutdown()
	}
}

// BenchmarkManyOSTConstruction measures file-system setup cost at Jaguar
// scale (672 targets), which every experiment sample pays.
func BenchmarkManyOSTConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := simkernel.New()
		fs := MustNew(k, Config{NumOSTs: 672, Seed: int64(i)})
		if len(fs.OSTs) != 672 {
			b.Fatal("bad fs")
		}
		k.Shutdown()
	}
}

var sinkName string

// BenchmarkFileCreate measures metadata create throughput.
func BenchmarkFileCreate(b *testing.B) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	b.ResetTimer()
	count := 0
	var op CreateOp
	var name string
	k.SpawnCont("creator", stepFunc(func(c *simkernel.ContProc) bool {
		for count < b.N {
			if name == "" {
				name = fmt.Sprintf("f%d", count)
				op.BeginCreate(fs, name, Layout{OSTs: []int{0}})
			}
			if !op.Step(c) {
				return false
			}
			if err := op.Err(); err != nil {
				b.Error(err)
				return true
			}
			sinkName = name
			name = ""
			count++
		}
		return true
	}))
	k.Run()
	k.Shutdown()
}
