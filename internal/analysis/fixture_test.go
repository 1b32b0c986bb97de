package analysis

// The fixture runner: an analysistest-style harness over testdata/src
// fixtures. Each fixture directory is one package; `// want` comments carry
// backquoted regexes that must match the diagnostics reported on their line,
// and every diagnostic must be claimed by an expectation. Fixtures are
// type-checked with the source importer, which compiles stdlib dependencies
// from GOROOT/src and therefore needs no network and no pre-built archives.

import (
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// runFixture analyzes testdata/src/<dir> under the given import path (the
// path matters: nodeterm's map-range and math/rand rules key on simulation
// package paths, and rngxonly exempts repro/internal/rngx) and checks the
// diagnostics against the fixture's // want comments.
func runFixture(t *testing.T, dir, path string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, dir, path)
	diags, err := RunSuite(pkg, analyzers)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	checkExpectations(t, pkg, diags)
}

// loadFixture parses and type-checks the fixture directory as package path.
func loadFixture(t *testing.T, dir, path string) *Package {
	t.Helper()
	fixdir := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(fixdir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	pkg := &Package{Fset: token.NewFileSet(), Info: newInfo(), Path: path}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(fixdir, e.Name())
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		f, err := parser.ParseFile(pkg.Fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		t.Fatalf("no .go files in %s", fixdir)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(pkg.Fset, "source", nil),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, pkg.Fset, pkg.Files, pkg.Info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	pkg.Types = tpkg
	return pkg
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// expectation is one backquoted regex from a // want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", posn.Filename, posn.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			posn := pkg.Fset.Position(d.Pos)
			if posn.Filename == w.file && posn.Line == w.line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			posn := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", posn.Filename, posn.Line, d.Analyzer, d.Message)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			t.Logf("got: %s:%d [%s] %s", posn.Filename, posn.Line, d.Analyzer, d.Message)
		}
	}
}

func TestNoDetermSimPackage(t *testing.T) {
	runFixture(t, "nodeterm_sim", "repro/internal/simkernel", []*Analyzer{NoDeterm})
}

func TestNoDetermNonSimPackage(t *testing.T) {
	runFixture(t, "nodeterm_nonsim", "repro/cmd/fixture", []*Analyzer{NoDeterm})
}

func TestRngxOnly(t *testing.T) {
	runFixture(t, "rngxonly", "repro/internal/stats", []*Analyzer{RngxOnly})
}

// TestRngxOnlyExemptsRngxItself proves the one sanctioned math/rand consumer
// stays silent, including its test variant.
func TestRngxOnlyExemptsRngxItself(t *testing.T) {
	runFixture(t, "rngxonly_exempt", "repro/internal/rngx", []*Analyzer{RngxOnly})
	runFixture(t, "rngxonly_exempt", "repro/internal/rngx [repro/internal/rngx.test]", []*Analyzer{RngxOnly})
}

func TestHotPath(t *testing.T) {
	runFixture(t, "hotpath", "repro/internal/simkernel", []*Analyzer{HotPath})
}

func TestResetComplete(t *testing.T) {
	runFixture(t, "resetcomplete", "repro/internal/pfs", []*Analyzer{ResetComplete})
}

func TestContBlock(t *testing.T) {
	runFixture(t, "contblock", "repro/internal/simkernel", []*Analyzer{ContBlock})
}

func TestRingDiscipline(t *testing.T) {
	runFixture(t, "ringdiscipline", "repro/internal/simkernel", []*Analyzer{RingDiscipline})
}

// TestAllowMachinery exercises the shared directive machinery itself: unknown
// analyzer names, missing reasons, stale allows, misplaced annotations. The
// full suite runs so stale-allow detection is active for every analyzer.
func TestAllowMachinery(t *testing.T) {
	runFixture(t, "allow", "repro/internal/fixture", Suite())
}

// TestSortedDiagnostics pins the deterministic output order RunSuite
// guarantees (file, then line, then column, then analyzer).
func TestSortedDiagnostics(t *testing.T) {
	pkg := loadFixture(t, "nodeterm_sim", "repro/internal/simkernel")
	diags, err := RunSuite(pkg, Suite())
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	if !sorted {
		t.Errorf("diagnostics not sorted by position")
	}
}
