package simkernel

import "testing"

// BenchmarkEventThroughput measures raw event scheduling/firing rate.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := New()
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < b.N {
			k.After(1, loop)
		}
	}
	k.After(1, loop)
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcessHandoff measures the goroutine handoff cost per
// sleep/wake cycle.
func BenchmarkProcessHandoff(b *testing.B) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}
