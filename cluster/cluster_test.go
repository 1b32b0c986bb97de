package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simkernel"
)

func TestPresets(t *testing.T) {
	cases := map[string]int{"jaguar": 672, "franklin": 96, "xtp": 40}
	for name, osts := range cases { //repro:allow nodeterm independent table-driven cases; each builds its own world
		c, err := Preset(name, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumOSTs() != osts {
			t.Errorf("%s OSTs = %d, want %d", name, c.NumOSTs(), osts)
		}
		c.Shutdown()
	}
	if _, err := Preset("bluegene", Config{}); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Fatalf("unknown preset error = %v", err)
	}
}

func TestNamedConstructors(t *testing.T) {
	for _, c := range []*Cluster{
		Jaguar(Config{Seed: 2}),
		Franklin(Config{Seed: 2}),
		XTP(Config{Seed: 2}),
	} {
		if c.Name() == "" || c.NumOSTs() == 0 {
			t.Errorf("preset %q malformed", c.Name())
		}
		c.Shutdown()
	}
}

func TestExperimentOSTs(t *testing.T) {
	c := Jaguar(Config{Seed: 1})
	defer c.Shutdown()
	if got := c.ExperimentOSTs(); got != 512 {
		t.Fatalf("Jaguar experiment OSTs = %d, want the paper's 512", got)
	}
	small := Jaguar(Config{Seed: 1, NumOSTs: 16})
	defer small.Shutdown()
	if got := small.ExperimentOSTs(); got != 16 {
		t.Fatalf("scaled-down experiment OSTs = %d, want clamped 16", got)
	}
}

func TestNumOSTsOverride(t *testing.T) {
	c := Jaguar(Config{Seed: 1, NumOSTs: 24})
	defer c.Shutdown()
	if c.NumOSTs() != 24 {
		t.Fatalf("override failed: %d", c.NumOSTs())
	}
}

// sleepRank is a rank body that sleeps for d, then counts itself in *ran.
type sleepRank struct {
	d     time.Duration
	ran   *int
	slept bool
}

func (m *sleepRank) StepRank(r *Rank, c *simkernel.ContProc) bool {
	if !m.slept {
		m.slept = true
		c.Sleep(m.d)
		return false
	}
	*m.ran++
	return true
}

func TestWorldLaunchAndJoin(t *testing.T) {
	c := XTP(Config{Seed: 3})
	defer c.Shutdown()
	w := c.NewWorld(5)
	if w.Size() != 5 || w.Cluster() != c {
		t.Fatal("world wiring wrong")
	}
	ran := 0
	j := w.LaunchCont(func(i int) RankCont { return &sleepRank{d: time.Duration(i) * time.Millisecond, ran: &ran} })
	end := c.RunUntilDone(j)
	if !j.Done() || ran != 5 {
		t.Fatalf("join: done=%v ran=%d", j.Done(), ran)
	}
	if end < 0.004 {
		t.Fatalf("virtual end time %v too small", end)
	}
}

func TestProductionNoisePerturbs(t *testing.T) {
	c := Jaguar(Config{Seed: 4, NumOSTs: 32, ProductionNoise: true})
	defer c.Shutdown()
	c.RunFor(10 * time.Minute)
	perturbed := 0
	fs := c.FileSystem()
	for i := 0; i < c.NumOSTs(); i++ {
		if fs.OST(i).SlowFactor() < 1 || fs.OST(i).ExternalStreams() > 0 {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Fatal("production noise inert")
	}
}

func TestXTPNoiseDisabledFallsBackWhenRequested(t *testing.T) {
	// XTP is not a production machine; its preset has noise disabled, but
	// explicitly requesting ProductionNoise still yields a working profile.
	c := XTP(Config{Seed: 5, ProductionNoise: true})
	defer c.Shutdown()
	c.RunFor(10 * time.Minute)
	perturbed := 0
	for i := 0; i < c.NumOSTs(); i++ {
		if c.FileSystem().OST(i).SlowFactor() < 1 || c.FileSystem().OST(i).ExternalStreams() > 0 {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Fatal("requested noise missing on XTP")
	}
}

func TestSlowOSTAndArtificialInterference(t *testing.T) {
	c := XTP(Config{Seed: 6})
	defer c.Shutdown()
	c.SlowOST(3, 0.25)
	if got := c.FileSystem().OST(3).SlowFactor(); got != 0.25 {
		t.Fatalf("slow factor = %v", got)
	}
	c.StartArtificialInterference(nil, 0, 0) // paper defaults
	c.RunFor(time.Second)
	if c.FileSystem().OST(0).ActiveFlows() != 3 {
		t.Fatalf("interference flows = %d, want 3/OST", c.FileSystem().OST(0).ActiveFlows())
	}
}

func TestRunForAdvancesVirtualTime(t *testing.T) {
	c := XTP(Config{Seed: 7})
	defer c.Shutdown()
	c.Kernel().After(time.Hour, func() {}) // something beyond the horizon
	got := c.RunFor(2 * time.Second)
	if got > 2.1 {
		t.Fatalf("RunFor overshot: %v", got)
	}
	if c.Now() > 2.1 {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestTraceIntegration(t *testing.T) {
	c := XTP(Config{Seed: 8})
	defer c.Shutdown()
	tr := c.Trace(0.5)
	w := c.NewWorld(4)
	j := w.LaunchCont(func(i int) RankCont {
		return &fileRank{fs: c.FileSystem(), name: "tr", bytes: 64 << 20}
	})
	c.RunUntilDone(j)
	tr.Stop()
	if len(tr.Samples()) == 0 {
		t.Fatal("trace collected no samples")
	}
}
