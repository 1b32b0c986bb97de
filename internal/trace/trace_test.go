package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machines"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

func setup(t *testing.T) (*simkernel.Kernel, *pfs.FileSystem) {
	t.Helper()
	k := simkernel.New()
	cfg := machines.Jaguar(4).FS
	cfg.NumOSTs = 4
	return k, pfs.MustNew(k, cfg)
}

// ostWriter writes bytes to one target n times in a row.
type ostWriter struct {
	ost     *pfs.OST
	bytes   float64
	n       int
	started bool
	op      pfs.OSTWriteOp
}

func (m *ostWriter) Step(c *simkernel.ContProc) bool {
	for m.n > 0 {
		if !m.started {
			m.op.Begin(m.ost, m.bytes)
			m.started = true
		}
		if !m.op.Step(c) {
			return false
		}
		m.started = false
		m.n--
	}
	return true
}

// fileWriter writes bytes to a new file on one target and flushes it.
type fileWriter struct {
	pc     int
	fs     *pfs.FileSystem
	ost    int
	bytes  int64
	create pfs.CreateOp
	write  pfs.WriteOp
	flush  pfs.FlushOp
}

func (m *fileWriter) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, "trace.out", pfs.Layout{OSTs: []int{m.ost}})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			m.write.BeginWrite(m.create.File(), 0, m.bytes)
			m.pc = 2
		case 2:
			if !m.write.Step(c) {
				return false
			}
			m.flush.BeginFlush(m.create.File())
			m.pc = 3
		default:
			return m.flush.Step(c)
		}
	}
}

func TestTracerSamplesAtInterval(t *testing.T) {
	k, fs := setup(t)
	tr := Start(fs, 1.0)
	k.SpawnCont(&ostWriter{ost: fs.OST(0), bytes: 200 * pfs.MB, n: 1})
	k.RunUntil(simkernel.FromSeconds(10))
	tr.Stop()
	k.Shutdown()
	n := len(tr.Samples())
	if n < 9 || n > 12 {
		t.Fatalf("samples = %d, want ~10", n)
	}
	sawFlow := false
	for _, s := range tr.Samples() {
		if s.Flows[0] > 0 {
			sawFlow = true
		}
		if len(s.Flows) != 4 || len(s.Cache) != 4 || len(s.Slow) != 4 {
			t.Fatal("sample shape wrong")
		}
	}
	if !sawFlow {
		t.Fatal("active flow never sampled")
	}
}

func TestThroughputSeriesTracksDrain(t *testing.T) {
	k, fs := setup(t)
	tr := Start(fs, 0.5)
	k.SpawnCont(&fileWriter{fs: fs, ost: 1, bytes: 100 * pfs.MB})
	k.RunUntil(simkernel.FromSeconds(8))
	tr.Stop()
	k.Shutdown()
	tp := tr.Throughput()
	if len(tp) == 0 {
		t.Fatal("no throughput samples")
	}
	var total float64
	for i, v := range tp {
		dt := tr.Samples()[i+1].T - tr.Samples()[i].T
		total += v * dt
	}
	if total < 99*pfs.MB || total > 101*pfs.MB {
		t.Fatalf("integrated throughput %.1f MB, want ~100", total/pfs.MB)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	k, fs := setup(t)
	fs.OST(2).SetSlowFactor(0.3)
	fs.OST(3).SetExternalStreams(2)
	tr := Start(fs, 1.0)
	k.SpawnCont(&ostWriter{ost: fs.OST(0), bytes: 60 * pfs.MB, n: 3})
	k.RunUntil(simkernel.FromSeconds(6))
	tr.Stop()
	k.Shutdown()

	act := tr.RenderActivity(40)
	if !strings.Contains(act, "OST000") || !strings.Contains(act, "OST003") {
		t.Fatalf("activity rows missing:\n%s", act)
	}
	slow := tr.RenderSlowness(40)
	if strings.Count(slow, "\n") != 5 {
		t.Fatalf("slowness lines wrong:\n%s", slow)
	}
	// OST2 is degraded: its row must carry non-space glyphs.
	for _, line := range strings.Split(slow, "\n") {
		if strings.HasPrefix(line, "OST002") {
			body := strings.Trim(line[8:], "|")
			if strings.TrimSpace(body) == "" {
				t.Fatalf("degraded target rendered clean: %q", line)
			}
		}
	}
	tp := tr.RenderThroughput(30)
	if !strings.Contains(tp, "MB/s") {
		t.Fatalf("throughput render wrong:\n%s", tp)
	}
}

func TestEmptyTracerRenders(t *testing.T) {
	k, fs := setup(t)
	tr := &Tracer{fs: fs}
	if !strings.Contains(tr.RenderActivity(10), "no samples") {
		t.Fatal("empty activity render")
	}
	if !strings.Contains(tr.RenderThroughput(10), "no samples") {
		t.Fatal("empty throughput render")
	}
	if tr.Throughput() != nil {
		t.Fatal("empty throughput series")
	}
	k.Shutdown()
	_ = time.Second
}

func TestMaxSamplesBounds(t *testing.T) {
	k, fs := setup(t)
	tr := Start(fs, 0.001)
	tr.MaxSamples = 50
	k.RunUntil(simkernel.FromSeconds(10))
	k.Shutdown()
	if got := len(tr.Samples()); got > 50 {
		t.Fatalf("samples = %d exceeds bound", got)
	}
}

func TestHealthTimelineTracksLifecycle(t *testing.T) {
	k, fs := setup(t)
	tr := Start(fs, 0.5)
	// Script OST 1 through the full lifecycle with kernel events.
	k.At(simkernel.FromSeconds(2), func() { fs.OST(1).SetHealth(pfs.Dead, 1) })
	k.At(simkernel.FromSeconds(4), func() { fs.OST(1).SetHealth(pfs.Rebuilding, 0.5) })
	k.At(simkernel.FromSeconds(6), func() { fs.OST(1).SetHealth(pfs.Healthy, 1) })
	k.RunUntil(simkernel.FromSeconds(10))
	tr.Stop()
	k.Shutdown()

	out := tr.RenderHealth(40)
	if !strings.Contains(out, "X") || !strings.Contains(out, "r") {
		t.Fatalf("health timeline missing dead/rebuilding glyphs:\n%s", out)
	}
}

func TestHealthTimelineSilentWhenClean(t *testing.T) {
	k, fs := setup(t)
	tr := Start(fs, 1.0)
	k.RunUntil(simkernel.FromSeconds(5))
	tr.Stop()
	k.Shutdown()
	if out := tr.RenderHealth(40); out != "" {
		t.Fatalf("failure-free trace rendered a health timeline:\n%s", out)
	}
}
