// Package analysis is reprolint: a vet-style static-analysis suite that
// enforces, at compile time, the invariants every figure and table of this
// reproduction rests on — bit-identical replica execution, an
// allocation-free hot loop, and the continuation engine's blocking and
// queue discipline. Six analyzers cover the invariant classes:
//
//   - nodeterm: no ambient wall-clock or randomness on the simulation path,
//     and no iteration-order-dependent map ranges in simulation packages.
//   - rngxonly: all randomness flows through internal/rngx streams.
//   - hotpath: functions annotated //repro:hotpath stay free of
//     allocation-prone constructs (capturing closures, fmt/errors on
//     non-panic paths, interface boxing, appends to slices the function
//     does not own).
//   - resetcomplete: every field of a type with a Reset method is assigned
//     in Reset, reached through a callee's reset, or explicitly waived with
//     //repro:reset-skip — making the stale-state bug class introduced by
//     world reuse a compile-time error.
//   - contblock: continuation bodies never call goroutine-blocking kernel
//     primitives, channel operations, select, go, or sync/time waits.
//   - ringdiscipline: Ring indices are not reused across mutations, Reset
//     runs only on reset paths, and nothing reaches into Ring internals.
//
// Intentional exceptions use one suppression directive, //repro:allow
// <analyzer> <reason>, validated by shared machinery (unknown analyzer
// names, missing reasons and stale suppressions are themselves reported).
//
// The suite mirrors the golang.org/x/tools/go/analysis API shape but is
// implemented on the standard library alone (go/ast + go/types), because
// this repository builds hermetically with no module dependencies. Load
// type-checks packages from source against `go list` export data;
// cmd/reprolint is the command-line driver, and TestRepoIsClean runs the
// same suite over the repository in-process.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a fully type-checked package
// through its Pass and reports findings via Pass.Report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Path is the package's canonical import path with cmd/go's test-variant
	// decorations ("pkg [pkg.test]") already stripped.
	Path string

	report   func(Diagnostic)
	markUsed func(token.Pos)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// MarkDirectiveUsed records that the //repro: directive whose comment begins
// at pos suppressed a finding inside an analyzer (as //repro:reset-skip does
// in resetcomplete), so the shared staleness check will not flag it as dead.
func (p *Pass) MarkDirectiveUsed(pos token.Pos) {
	if p.markUsed != nil {
		p.markUsed(pos)
	}
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is a loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Path is the canonical import path (test-variant decorations stripped).
	Path string
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// Suite returns the full reprolint analyzer set, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{NoDeterm, RngxOnly, HotPath, ResetComplete, ContBlock, RingDiscipline}
}

// suiteNames is the set of analyzer names //repro:allow may reference.
func suiteNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Suite() {
		names[a.Name] = true
	}
	return names
}

// suiteNameList renders the analyzer names in suite order, for diagnostics.
func suiteNameList() string {
	var names []string
	for _, a := range Suite() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// RunSuite runs the given analyzers over one package, applies the
// //repro:allow suppression machinery, validates every //repro: directive,
// and returns the surviving diagnostics sorted by position. Analyzer errors
// (not findings) abort the run.
func RunSuite(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := parseDirectives(pkg)

	byPos := make(map[token.Pos]*directive, len(dirs.dirs))
	for _, d := range dirs.dirs {
		byPos[d.pos] = d
	}
	markUsed := func(pos token.Pos) {
		if d := byPos[pos]; d != nil {
			d.used = true
		}
	}

	var raw []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			report:   func(d Diagnostic) { raw = append(raw, d) },
			markUsed: markUsed,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	kept := dirs.apply(pkg.Fset, raw)
	kept = append(kept, dirs.problems(pkg.Fset, ran)...)
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}
