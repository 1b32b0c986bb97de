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
// Each artifact is an unexported builder that returns the paper's
// scenario.Scenario in full mode and a scaled-down one in quick mode, plus
// a demux that rebuilds the canonical tables and figures from the generic
// run. register.go publishes every builder and renderer through the
// scenario registry; an experiment runs one way, scenario.Run on the
// registered spec followed by its Definition.Render. Other shapes start
// from the registered spec and edit it (scenario.ApplySet or its fields).
// Seed labels and grid-point labels are part of the reproducibility
// contract and must not change.
package experiments

import "repro/internal/scenario"

// nums builds one numeric axis value per x.
func nums(xs ...float64) []scenario.Value {
	out := make([]scenario.Value, len(xs))
	for i, x := range xs {
		out[i] = scenario.NumValue(x)
	}
	return out
}
