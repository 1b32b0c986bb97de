package simkernel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestLocalOnePerKernelAndType asks for locals of two types on two
// kernels: the same kernel and type give the same T every time, and a
// different kernel or a different type gives a different one.
func TestLocalOnePerKernelAndType(t *testing.T) {
	k1, k2 := New(), New()
	a := Local[Slab[slabRec]](k1)
	if Local[Slab[slabRec]](k1) != a {
		t.Fatal("one kernel handed out two slabs of one type")
	}
	if Local[Slab[slabRec]](k2) == a {
		t.Fatal("two kernels share one local")
	}
	words := Local[Slab[uint64]](k1)
	if Local[Slab[uint64]](k1) != words {
		t.Fatal("a second type's local changed on a second call")
	}
	if Local[Slab[slabRec]](k1) != a {
		t.Fatal("a second type displaced the first type's local")
	}
}

// TestResetRewindsLocals carves from two local slabs, resets the kernel and
// carves again: each slab hands out its first record again, zeroed.
func TestResetRewindsLocals(t *testing.T) {
	k := New()
	recs, words := Local[Slab[slabRec]](k), Local[Slab[uint64]](k)
	first, firstWords := recs.New(), words.Take(3)
	first.id = 7
	firstWords[0] = 9
	recs.New()
	words.Take(5)
	k.Reset()
	if r := Local[Slab[slabRec]](k).New(); r != first || r.id != 0 {
		t.Fatalf("after Reset the slab handed out %p (id %d), want its first record %p zeroed", r, r.id, first)
	}
	if w := Local[Slab[uint64]](k).Take(3); &w[0] != &firstWords[0] || w[0] != 0 {
		t.Fatal("after Reset the word slab did not rewind to its first run")
	}
}

// TestNoSlabFields guards the one-slab-per-type rule: outside simkernel, no
// struct in the module's non-test code keeps a simkernel.Slab by value. A
// package carves from the kernel's one slab of each type (Local[Slab[T]]) rather
// than keeping an arena of its own; a *Slab field that keeps the kernel's
// slab for per-rank or per-message carves is fine. pfs keeps its slabs
// beside the per-create and per-flush paths and rewinds them with its
// reseed, and ior's writer local keeps a name cache that outlives Reset, so
// both are left out.
func TestNoSlabFields(t *testing.T) {
	root := filepath.Join("..", "..")
	owners := map[string]bool{"internal/simkernel": true, "internal/pfs": true, "internal/ior": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".")) || owners[filepath.ToSlash(rel)] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sk := "" // the file's name for the simkernel package
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/simkernel"` {
				sk = "simkernel"
				if imp.Name != nil {
					sk = imp.Name.Name
				}
			}
		}
		if sk == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if isSlabType(fld.Type, sk) {
						t.Errorf("%s: struct field holds a simkernel.Slab; carve from the kernel's simkernel.Local[simkernel.Slab[T]] instead", fset.Position(fld.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isSlabType reports whether e is the type sk.Slab[T].
func isSlabType(e ast.Expr, sk string) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == sk && sel.Sel.Name == "Slab"
}
