// Package experiments reproduces every table and figure of the paper's
// measurement and evaluation sections as registered scenarios:
//
//	fig1       — internal interference: IOR weak-scaling grid on Jaguar (II-1)
//	table1     — external interference variability on three machines (II-2),
//	             rendered with its Figure 2 bandwidth histograms
//	fig3       — per-writer write times and imbalance factors (II-2)
//	fig5-*     — Pixie3D small/large/XL, MPI-IO vs adaptive, ±interference (IV-A)
//	fig6       — XGC1 38 MB/process, same comparison (IV-B)
//	Fig7Artifact — standard deviation of write times for the four cases (IV-C)
//
// Each artifact is an options struct whose zero value reproduces the
// paper's configuration, a spec builder (XScenario) that expresses it
// declaratively for internal/scenario, a preset per CLI mode, and a demux
// that rebuilds the canonical tables and figures from the generic run.
// register.go publishes every spec and renderer through the scenario
// registry; an experiment runs one way, scenario.Run on the registered
// spec followed by its Definition.Render. Seed labels and grid-point
// labels are part of the reproducibility contract and must not change.
package experiments

// Condition labels the two evaluation environments of Section IV.
type Condition string

const (
	// Base is the paper's "normal system conditions with whatever other
	// simultaneous jobs happen to be running" (production noise on).
	Base Condition = "base"
	// Interference adds the artificial interference program: 24 processes
	// continuously writing 1 GB chunks, 3 per target across 8 targets.
	Interference Condition = "interference"
)

// firstN returns [0, 1, ..., n).
func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
