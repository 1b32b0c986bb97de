package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Load type-checks the packages matching the patterns (relative to dir) and
// returns them ready for RunSuite. It shells out to `go list -test -deps
// -export -json`, which works offline: export data for dependencies comes out
// of the build cache, so no network and no GOPATH layout is required. Test
// variants replace their plain packages (mirroring `go vet`), so _test.go
// files are analyzed too.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, nil, patterns)
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	ForTest    string
	ImportMap  map[string]string
}

// load implements Load with an optional source overlay (absolute filename →
// contents) so tests can type-check mutated sources against cached export
// data without touching the tree.
func load(dir string, overlay map[string][]byte, patterns []string) ([]*Package, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exportOf := map[string]string{}
	hasTestVariant := map[string]bool{}
	for _, e := range entries {
		if e.Export != "" {
			exportOf[e.ImportPath] = e.Export
		}
		if e.ForTest != "" {
			hasTestVariant[e.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, e := range entries {
		switch {
		case e.Standard:
			continue // this module has no external deps; non-standard == ours
		case strings.HasSuffix(e.ImportPath, ".test"):
			continue // generated test-main package
		case e.ForTest == "" && hasTestVariant[e.ImportPath]:
			continue // superseded by its test variant, which includes these files
		}
		pkg, err := typecheckUnit(fset, e, overlay, exportOf)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listEntry, error) {
	args := append([]string{
		"list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,ForTest,ImportMap",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("`go list -test -deps -export %s` failed (run reprolint from inside the module, and fix compile errors before linting): %v\n%s",
			strings.Join(patterns, " "), err, strings.TrimSpace(stderr.String()))
	}
	var entries []*listEntry
	dec := json.NewDecoder(&stdout)
	for {
		e := new(listEntry)
		if err := dec.Decode(e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// typecheckUnit parses and type-checks one go list entry from source,
// resolving imports through cached export data (with the entry's ImportMap
// applied, so an external test package sees its subject's test-variant
// export).
func typecheckUnit(fset *token.FileSet, e *listEntry, overlay map[string][]byte, exportOf map[string]string) (*Package, error) {
	pkg := &Package{Fset: fset, Info: newInfo(), Path: e.ImportPath}
	if i := strings.Index(pkg.Path, " ["); i >= 0 {
		pkg.Path = pkg.Path[:i]
	}
	for _, name := range e.GoFiles {
		filename := filepath.Join(e.Dir, name)
		var src any
		if overlay != nil {
			if b, ok := overlay[filename]; ok {
				src = b
			}
		}
		f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := e.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exportOf[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q: `go list -export` left it unbuilt — the build cache entry is missing or stale; run `go build ./...` and retry", path)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", e.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
