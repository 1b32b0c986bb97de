package adios

import (
	"testing"

	"repro/cluster"
	"repro/internal/bp"
	"repro/internal/iomethod"
)

// writeThenIndex runs a step through the given method and returns the
// cluster (still alive), a fresh world for readers, and the step result.
func writeThenIndex(t *testing.T, method Method) (*cluster.Cluster, *StepResult) {
	t.Helper()
	c := cluster.Jaguar(cluster.Config{Seed: 17, NumOSTs: 8})
	w := c.NewWorld(8)
	io, err := NewIO(c, w, Options{Method: method, OSTs: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var out StepOut
	// rho's range starts at the rank; phi's is the same on every rank.
	shape := iomethod.NewShape(func(rank, v int) float64 { return float64((1 - v) * rank) },
		iomethod.VarSpec{Name: "rho", Bytes: 1 << 20, Dims: []uint64{64, 64, 32}, Min: 0, Max: 1},
		iomethod.VarSpec{Name: "phi", Bytes: 2 << 20, Min: 0, Max: 1},
	)
	writeStep(w, io, "rst", shape.Rank, &out)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := out.Err; err != nil {
		t.Error(err)
	}
	return c, out.Result
}

func TestRestartReadAllMethods(t *testing.T) {
	for _, method := range []Method{MethodAdaptive, MethodMPI, MethodPOSIX} {
		c, res := writeThenIndex(t, method)
		rd, err := NewReader(c, res.Index())
		if err != nil {
			t.Fatal(err)
		}
		w2 := c.NewWorld(8)
		var bytesRead int64
		var dur float64
		launch(w2, func(int) script {
			var start float64
			var rc ReadCont
			var cc ReaderCloseCont
			return script{
				stopIf(func(r *cluster.Rank) bool {
					start = c.Now()
					if err := rd.RestartRead(&rc, r.Rank()); err != nil {
						t.Error(method, err)
						return true
					}
					return false
				}),
				drive(&rc),
				stopIf(func(r *cluster.Rank) bool {
					n, err := rc.Result()
					if err != nil {
						t.Error(method, err)
						return true
					}
					if r.Rank() == 0 {
						bytesRead = n
						dur = c.Now() - start
					}
					rd.Close(&cc)
					return false
				}),
				drive(&cc),
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		if bytesRead != 3<<20 {
			t.Errorf("%s: rank 0 restart read %d bytes, want %d", method, bytesRead, 3<<20)
		}
		if dur <= 0 {
			t.Errorf("%s: restart read took no simulated time", method)
		}
	}
}

func TestReadVarAndByValue(t *testing.T) {
	c, res := writeThenIndex(t, MethodAdaptive)
	defer c.Shutdown()
	rd, err := NewReader(c, res.Index())
	if err != nil {
		t.Fatal(err)
	}
	w2 := c.NewWorld(1)
	var rc ReadCont
	var locs []bp.Location
	launch(w2, func(int) script {
		return script{
			stopIf(func(*cluster.Rank) bool {
				loc, err := rd.ReadVar(&rc, "rho", 5)
				if err != nil {
					t.Error(err)
					return true
				}
				if loc.Entry.WriterRank != 5 || loc.Entry.Length != 1<<20 {
					t.Errorf("wrong block: %+v", loc.Entry)
				}
				return false
			}),
			drive(&rc),
			stopIf(func(*cluster.Rank) bool {
				if _, err := rc.Result(); err != nil {
					t.Error(err)
					return true
				}
				if _, err := rd.ReadVar(&rc, "ghost", -1); err == nil {
					t.Error("missing variable read succeeded")
				}
				// rho for rank k spans [k, k+1]: [2.2, 3.8] intersects ranks 2 and 3.
				locs = rd.ReadByValue(&rc, "rho", 2.2, 3.8)
				return false
			}),
			drive(&rc),
			do(func(*cluster.Rank) {
				total, err := rc.Result()
				if err != nil {
					t.Error(err)
					return
				}
				if len(locs) != 2 || total != 2<<20 {
					t.Errorf("value read: %d blocks, %d bytes", len(locs), total)
				}
			}),
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewReaderNilIndex(t *testing.T) {
	c := cluster.Jaguar(cluster.Config{Seed: 1, NumOSTs: 4})
	defer c.Shutdown()
	if _, err := NewReader(c, nil); err == nil {
		t.Fatal("nil index accepted")
	}
}

func TestReaderReusesHandles(t *testing.T) {
	c, res := writeThenIndex(t, MethodAdaptive)
	defer c.Shutdown()
	rd, _ := NewReader(c, res.Index())
	opsBefore := -1
	w2 := c.NewWorld(1)
	var rc ReadCont
	var loc bp.Location
	launch(w2, func(int) script {
		return script{
			// Two reads of blocks in the same file must open it once.
			stopIf(func(*cluster.Rank) bool {
				var err error
				loc, err = rd.ReadVar(&rc, "rho", 0)
				if err != nil {
					t.Error(err)
					return true
				}
				return false
			}),
			drive(&rc),
			stopIf(func(*cluster.Rank) bool {
				if _, err := rc.Result(); err != nil {
					t.Error(err)
					return true
				}
				opsBefore = c.FileSystem().MDS.Stats.OpsServed
				rd.ReadBlock(&rc, loc)
				return false
			}),
			drive(&rc),
			do(func(*cluster.Rank) {
				if _, err := rc.Result(); err != nil {
					t.Error(err)
				}
				if got := c.FileSystem().MDS.Stats.OpsServed; got != opsBefore {
					t.Errorf("re-read reopened the file: MDS ops %d -> %d", opsBefore, got)
				}
			}),
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderCloseClosesEveryHandle(t *testing.T) {
	c, res := writeThenIndex(t, MethodAdaptive)
	defer c.Shutdown()
	rd, err := NewReader(c, res.Index())
	if err != nil {
		t.Fatal(err)
	}
	w2 := c.NewWorld(1)
	var rc ReadCont
	var cc ReaderCloseCont
	var open, before int
	launch(w2, func(int) script {
		// Touch every writer's block so the reader holds several distinct
		// subfile handles.
		var s script
		for rank := int32(0); rank < 8; rank++ {
			s = append(s, stopIf(func(*cluster.Rank) bool {
				if _, err := rd.ReadVar(&rc, "rho", rank); err != nil {
					t.Error(err)
					return true
				}
				return false
			}), drive(&rc), stopIf(func(*cluster.Rank) bool {
				if _, err := rc.Result(); err != nil {
					t.Error(err)
					return true
				}
				return false
			}))
		}
		return append(s,
			stopIf(func(*cluster.Rank) bool {
				open = len(rd.handles)
				if open < 2 {
					t.Errorf("want multiple open handles, got %d", open)
					return true
				}
				before = c.FileSystem().MDS.Stats.OpsServed
				rd.Close(&cc)
				return false
			}),
			drive(&cc),
			do(func(*cluster.Rank) {
				if got := c.FileSystem().MDS.Stats.OpsServed - before; got != open {
					t.Errorf("Close charged %d MDS ops, want one per handle (%d)", got, open)
				}
				if len(rd.handles) != 0 {
					t.Errorf("%d handles survived Close", len(rd.handles))
				}
				// Closing an already-closed reader charges nothing.
				before = c.FileSystem().MDS.Stats.OpsServed
				rd.Close(&cc)
			}),
			drive(&cc),
			do(func(*cluster.Rank) {
				if got := c.FileSystem().MDS.Stats.OpsServed; got != before {
					t.Errorf("second Close charged %d extra MDS ops", got-before)
				}
			}),
		)
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
