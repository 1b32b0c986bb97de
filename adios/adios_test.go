package adios

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/pfs"
)

// runStep executes one collective output step on a small Jaguar-calibrated
// cluster with the given method and returns the result.
func runStep(t *testing.T, method Method, ranks int, bytesPerVar int64) *StepResult {
	t.Helper()
	c := cluster.Jaguar(cluster.Config{Seed: 11, NumOSTs: 8})
	defer c.Shutdown()
	w := c.NewWorld(ranks)
	io, err := NewIO(c, w, Options{Method: method, OSTs: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var out StepOut
	// rho has the same range on every rank, phi a range starting at the
	// rank.
	shape := iomethod.NewShape(func(rank, v int) float64 { return float64(v * rank) },
		iomethod.VarSpec{Name: "rho", Bytes: bytesPerVar, Dims: []uint64{64, 64, 64}, Min: -1, Max: 1},
		iomethod.VarSpec{Name: "phi", Bytes: bytesPerVar, Dims: []uint64{64, 64, 64}, Min: 0, Max: 1},
	)
	writeStep(w, io, "step", shape.Rank, &out)
	if _, err := c.Run(); err != nil {
		t.Fatalf("ranks did not finish: %v", err)
	}
	if err := out.Err; err != nil {
		t.Error(err)
	}
	return out.Result
}

func TestAllMethodsWriteAllBytes(t *testing.T) {
	const ranks = 8
	const perVar = 1 << 20
	for _, m := range []Method{MethodMPI, MethodPOSIX, MethodAdaptive} {
		res := runStep(t, m, ranks, perVar)
		want := float64(ranks * 2 * perVar)
		if math.Abs(res.TotalBytes-want) > 1 {
			t.Errorf("%s: total bytes %v, want %v", m, res.TotalBytes, want)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", m, res.Elapsed)
		}
		if res.AggregateBW() <= 0 {
			t.Errorf("%s: bandwidth %v", m, res.AggregateBW())
		}
	}
}

func TestIndexLookupThroughFacade(t *testing.T) {
	res := runStep(t, MethodAdaptive, 8, 1<<20)
	if res.Index() == nil {
		t.Fatal("no index")
	}
	loc, ok := res.Index().Lookup("rho", 3)
	if !ok || loc.Entry.Length != 1<<20 {
		t.Fatalf("lookup = %+v, %v", loc, ok)
	}
	// phi for rank r has range [r, r+1]: value search for [2.5, 2.6] must
	// hit rank 2's block only.
	hits := res.Index().FindByValue("phi", 2.5, 2.6)
	if len(hits) != 1 || hits[0].Entry.WriterRank != 2 {
		t.Fatalf("value search = %+v", hits)
	}
}

// TestOverlongNameCompletes closes a step whose variable name is longer
// than the BP format allows (64 KiB) under every method. The step completes
// and its index writes are charged the index's arithmetic length; the limit
// is enforced where bytes are produced, by Encode.
func TestOverlongNameCompletes(t *testing.T) {
	const ranks = 4
	long := strings.Repeat("n", 70_000)
	for _, m := range []Method{MethodMPI, MethodPOSIX, MethodAdaptive, MethodStaging} {
		t.Run(string(m), func(t *testing.T) {
			c := cluster.Jaguar(cluster.Config{Seed: 11, NumOSTs: 8})
			defer c.Shutdown()
			w := c.NewWorld(ranks)
			io, err := NewIO(c, w, Options{Method: m, OSTs: []int{0, 1, 2, 3}, StagingNodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			var out StepOut
			shape := iomethod.NewShape(nil,
				iomethod.VarSpec{Name: long, Bytes: 1 << 20, Dims: []uint64{64, 64, 32}},
				iomethod.VarSpec{Name: "phi", Bytes: 1 << 20},
			)
			writeStep(w, io, "long", shape.Rank, &out)
			// Run returns once staging's drainers, workers too, are done.
			if _, err := c.Run(); err != nil || out.Err != nil {
				t.Fatalf("step did not complete: run %v, step %v", err, out.Err)
			}
			res := out.Result
			g := res.Index()
			if g == nil || g.NumEntries() != 2*ranks {
				t.Fatalf("index = %+v", g)
			}
			// Every local index is written (local entry: name and count
			// prefixes, rank, offset, length, min, max, dims), and the
			// adaptive coordinator writes the global one.
			var locals, global int
			for _, li := range g.Locals {
				n := 4 + 2 + 4 + len(li.File) + 4
				for _, e := range li.Entries {
					n += 4 + len(e.Name) + 4 + 8 + 8 + 8 + 8 + 4 + 8*len(e.Dims)
				}
				locals += n
				global += 8 + n
			}
			want := locals
			if m == MethodAdaptive {
				want += 4 + 2 + 8 + 4 + global
			}
			if res.IndexBytes != float64(want) {
				t.Errorf("index bytes %v, want %d", res.IndexBytes, want)
			}
			if _, err := g.Encode(); err == nil || !strings.Contains(err.Error(), "bp: string too long") {
				t.Errorf("Encode = %v, want bp: string too long", err)
			}
		})
	}
}

func TestDefaultMethodIsAdaptive(t *testing.T) {
	c := cluster.Jaguar(cluster.Config{Seed: 1, NumOSTs: 4})
	defer c.Shutdown()
	w := c.NewWorld(2)
	io, err := NewIO(c, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if io.method.Name() != "ADAPTIVE" {
		t.Fatalf("default method = %s", io.method.Name())
	}
}

func TestUnknownMethodErrors(t *testing.T) {
	c := cluster.Jaguar(cluster.Config{Seed: 1, NumOSTs: 4})
	defer c.Shutdown()
	w := c.NewWorld(2)
	if _, err := NewIO(c, w, Options{Method: "HDF5"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestAdaptiveBeatsMPIUnderArtificialInterference(t *testing.T) {
	// The paper's central evaluation shape (Figures 5–6): with writers
	// outnumbering targets and interference loading part of the file
	// system, adaptive IO outperforms the MPI-IO baseline.
	run := func(method Method) float64 {
		c := cluster.Jaguar(cluster.Config{Seed: 21, NumOSTs: 16})
		defer c.Shutdown()
		// MPI limited to 4 targets (stands in for the 160-OST limit at
		// scale); adaptive free to use 12.
		osts := []int{0, 1, 2, 3}
		if method == MethodAdaptive {
			osts = nil
		}
		c.StartArtificialInterference([]int{0, 1}, 3, 1<<28)
		w := c.NewWorld(32)
		io, err := NewIO(c, w, Options{Method: method, OSTs: osts})
		if err != nil {
			t.Fatal(err)
		}
		var out StepOut
		u := iomethod.NewShape(nil, iomethod.VarSpec{Name: "u", Bytes: 32 << 20, Min: 0, Max: 1})
		writeStep(w, io, "restart", u.Rank, &out)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := out.Err; err != nil {
			t.Error(err)
		}
		return out.Result.Elapsed
	}
	mpi := run(MethodMPI)
	adaptive := run(MethodAdaptive)
	if adaptive >= mpi {
		t.Fatalf("adaptive (%.2fs) should beat MPI-IO (%.2fs) under interference", adaptive, mpi)
	}
}

// TestCloseResultSharedAcrossRanks pins that a step has one result: every
// rank's WriteStep records the same *StepResult, the transport's one shared
// result, and the rank's next step gets its own.
func TestCloseResultSharedAcrossRanks(t *testing.T) {
	const ranks = 8
	v := iomethod.NewShape(nil, iomethod.VarSpec{Name: "v", Bytes: 1 << 20, Dims: []uint64{8}, Min: 0, Max: 1})
	for _, method := range []Method{MethodMPI, MethodAdaptive, MethodPOSIX} {
		c := cluster.Jaguar(cluster.Config{Seed: 3, NumOSTs: 4})
		w := c.NewWorld(ranks)
		io, err := NewIO(c, w, Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		var outs [2][ranks]StepOut
		launch(w, func(i int) script {
			var s script
			for step := range outs {
				s = append(s, &WriteStep{IO: io, Step: fmt.Sprintf("s%d", step), PerRank: v.Rank, Out: &outs[step][i]})
			}
			return s
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		for step := range outs {
			first := outs[step][0].Result
			for i, out := range outs[step] {
				if out.Err != nil {
					t.Error(out.Err)
				}
				if out.Result == nil || out.Result != first {
					t.Fatalf("%s step %d: rank %d got result %p, rank 0 got %p", method, step, i, out.Result, first)
				}
			}
		}
		if outs[0][0].Result == outs[1][0].Result {
			t.Fatalf("%s: two steps share a result", method)
		}
	}
}

// TestStepLifecycleAllMethods runs three collective steps back to back on
// every rank under each method — a, b, then a again — after a create storm
// of one file per rank. Every step gets its own number and a fresh result:
// each writer's time is positive and within the step's elapsed time, and
// the metadata queue peak is read at the timed start, after the storm.
// A step is forgotten once its ranks have returned, so the second a is a
// new step, not a rejoin of the first (each method's own tests check that
// no step is left live).
func TestStepLifecycleAllMethods(t *testing.T) {
	const ranks = 32 // twice the metadata server's capacity, so creates queue
	names := []string{"a", "b", "a"}
	v := iomethod.NewShape(nil, iomethod.VarSpec{Name: "v", Bytes: 1 << 20, Dims: []uint64{8}, Min: 0, Max: 1})
	for _, m := range []Method{MethodMPI, MethodPOSIX, MethodAdaptive, MethodStaging} {
		t.Run(string(m), func(t *testing.T) {
			c := cluster.Jaguar(cluster.Config{Seed: 5, NumOSTs: 8})
			defer c.Shutdown()
			w := c.NewWorld(ranks)
			io, err := NewIO(c, w, Options{Method: m, OSTs: []int{0, 1, 2, 3}, StagingNodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			var outs [3]StepOut
			ops := make([]pfs.FileOp, ranks)
			launch(w, func(i int) script {
				s := script{
					do(func(*cluster.Rank) {
						ops[i].BeginCreate(c.FileSystem(), fmt.Sprintf("storm.%d", i), pfs.Layout{OSTs: []int{i % 8}})
					}),
					drive(&ops[i]),
				}
				for step, name := range names {
					s = append(s, &WriteStep{IO: io, Step: name, PerRank: v.Rank, Out: &outs[step]})
				}
				return s
			})
			// Run returns once staging's drainers, workers too, are done.
			if _, err := c.Run(); err != nil {
				t.Fatalf("ranks did not finish: %v", err)
			}
			for step, out := range outs {
				if out.Err != nil {
					t.Fatalf("step %d: %v", step, out.Err)
				}
				res := out.Result
				if g := res.Index(); g == nil || g.Step != int64(step) {
					t.Fatalf("step %d: index %+v, want step number %d", step, g, step)
				}
				var slowest float64
				for r, wt := range res.WriterTimes {
					if wt <= 0 {
						t.Errorf("step %d: rank %d writer time %v", step, r, wt)
					}
					slowest = max(slowest, wt)
				}
				if res.Elapsed < slowest {
					t.Errorf("step %d: elapsed %v below the slowest writer's %v", step, res.Elapsed, slowest)
				}
				if res.MDSOpenQueuePeak <= 0 {
					t.Errorf("step %d: MDS open queue peak %d", step, res.MDSOpenQueuePeak)
				}
			}
			if outs[0].Result == outs[2].Result {
				t.Error("reusing a finished name rejoined its step")
			}
		})
	}
}
