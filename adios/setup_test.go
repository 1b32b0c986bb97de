package adios

import (
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/iomethod/iomethodtest"
	"repro/internal/mpisim"
)

// TestCreateFailureFailsStep plants a create failure under every method by
// overwriting an entry of the target list the method was built with: each
// method keeps the caller's slice, so the next create on that entry names
// a target the file system does not have. With one create failing or
// every one, the step fails on every rank: each rank returns through the
// step's exit with an error wrapping the create's, no rank writes a byte,
// and no process is left parked (ranks, drainers, pumps or joiners), so
// the kernel drains and resets. Restoring the entry and running the same
// step name again writes every byte, so the failed step was forgotten.
func TestCreateFailureFailsStep(t *testing.T) {
	const ranks = 8
	const bytes = 1 << 20
	data := iomethodtest.Same(iomethod.VarSpec{Name: "v", Bytes: bytes})
	cases := []struct {
		name    string
		bad     []int // entries of the target list to break
		restore bool  // then mend them and run the step again
	}{
		{"one", []int{1}, false},
		{"every", []int{0, 1, 2, 3}, false},
		{"restored", []int{1}, true},
	}
	for _, m := range []Method{MethodMPI, MethodPOSIX, MethodAdaptive, MethodStaging} {
		for _, tc := range cases {
			t.Run(string(m)+"/"+tc.name, func(t *testing.T) {
				c := cluster.Jaguar(cluster.Config{Seed: 3, NumOSTs: 8})
				defer c.Shutdown()
				k := c.Kernel()
				w := c.NewWorld(ranks)
				osts := []int{0, 1, 2, 3}
				io, err := NewIO(c, w, Options{Method: m, OSTs: osts, StagingNodes: 4})
				if err != nil {
					t.Fatal(err)
				}
				// run runs step s on every rank and checks that each rank
				// returned through the step's exit and nothing is left live.
				run := func() ([]error, *iomethod.StepResult) {
					errs := make([]error, ranks)
					var res *iomethod.StepResult
					wg := iomethodtest.LaunchStep(w.MPI(), io.method, "s", data, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
						if rr == nil {
							t.Errorf("rank %d returned no step result", r.Rank())
						}
						errs[r.Rank()], res = err, rr
					})
					c.Run()
					if n := wg.Count(); n != 0 {
						t.Fatalf("%d of %d ranks never returned", n, ranks)
					}
					if n := k.Live(); n != 0 {
						t.Fatalf("%d processes left parked", n)
					}
					return errs, res
				}

				for _, i := range tc.bad {
					osts[i] = 99
				}
				errs, res := run()
				for r, err := range errs {
					if err == nil || !strings.Contains(err.Error(), "OST index 99 out of range") {
						t.Errorf("rank %d: error %v, want the planted create failure", r, err)
					}
				}
				if res != nil && res.TotalBytes != 0 {
					t.Errorf("failed step wrote %v bytes", res.TotalBytes)
				}

				if tc.restore {
					for _, i := range tc.bad {
						osts[i] = i
					}
					errs, res := run()
					for r, err := range errs {
						if err != nil {
							t.Errorf("rank %d of the rerun: %v", r, err)
						}
					}
					if want := float64(ranks * bytes); res == nil || res.TotalBytes != want {
						t.Errorf("rerun result %+v, want %v bytes", res, want)
					}
				}
				k.Reset()
			})
		}
	}
}
