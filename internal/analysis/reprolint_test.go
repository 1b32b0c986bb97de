package analysis

// Loader-backed tests: these shell out to `go list -deps -export` against the
// real repository, exactly as cmd/reprolint does.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRepoIsClean is the lint gate in test form: the full suite over every
// package of the module (test files included) must report nothing. Every
// intentional exception in the tree carries its //repro: waiver, and this
// test is what keeps that claim true.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, Suite())
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d:%d: [%s] %s", posn.Filename, posn.Line, posn.Column, d.Analyzer, d.Message)
		}
	}
}

// TestContBlockMutation plants a re-entry of the event loop inside the
// sub-coordinator's continuation body and demands contblock flags it.
func TestContBlockMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the core subtree")
	}
	root := repoRoot(t)
	target := filepath.Join(root, "internal", "core", "pump.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "s.li.Sort()"
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("mutation anchor %q not found in %s", anchor, target)
	}
	mutated := strings.Replace(string(src), anchor, "s.r.World().Kernel().Run()\n"+anchor, 1)

	pkgs, err := load(root, map[string][]byte{target: []byte(mutated)}, []string{"./internal/core"})
	if err != nil {
		t.Fatalf("load with overlay: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, []*Analyzer{ContBlock})
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, "Kernel.Run in a continuation body re-enters the event loop") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("contblock missed the planted Kernel.Run in scCont.Step")
	}
}

// TestResetCompleteMutation drops one field assignment out of
// pfs.FileSystem.Reset and demands that resetcomplete catches it — the
// acceptance check that the analyzer guards real reset methods, not just
// fixtures.
func TestResetCompleteMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the pfs subtree")
	}
	root := repoRoot(t)
	target := filepath.Join(root, "internal", "pfs", "fs.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	const dropped = "fs.nextOST = 0"
	if !strings.Contains(string(src), dropped) {
		t.Fatalf("mutation anchor %q not found in %s", dropped, target)
	}
	mutated := strings.Replace(string(src), dropped, "", 1)

	pkgs, err := load(root, map[string][]byte{target: []byte(mutated)}, []string{"./internal/pfs"})
	if err != nil {
		t.Fatalf("load with overlay: %v", err)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := RunSuite(pkg, []*Analyzer{ResetComplete})
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, "nextOST") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("resetcomplete missed the dropped %q assignment in FileSystem.Reset", dropped)
	}
}
