package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exampleDigests pins the SHA-256 of each program's stdout: the end-to-end
// oracle for the rank bodies the examples write as their own machines
// (cluster.World.LaunchCont, adios.WriteStep, the pfs client ops) and for
// pfsinspect's probes, which run IOR and the scenario open storm. The temp
// directory quickstart prints is replaced by "$TMPDIR" first.
var exampleDigests = []struct{ name, sha256 string }{
	{"quickstart", "6fb63c82366038662bc1b2cda68684a6cf488a42ed782fc04f1922ef922cedc1"},
	{"pixie3d", "3c1c4919a336db68d2d404e1f0e7f3d705906ecf4a385ec49d78d4b101c87e05"},
	{"xgc1", "33c38ee85e62b12848ee05f2f092ef529122b76ad15a238b579bae8df325b98d"},
	{"interference", "8a095966718c6c299d0542c20deb741b0220d5920df1f42777400e0911d1ff61"},
	{"timeline", "471e9a03427ba24178da834c55867266e3ca85df05e22b3d6f6e0e5b440b46d9"},
	{"pfsinspect", "04e443c2c285502ef7079c222ac9536b9482944cf804f41b7ca94bbaec5b4cc5"},
}

// TestExampleOutputDigests builds the examples and cmd/pfsinspect, runs each
// once with default flags, and compares its stdout digest to the pin.
func TestExampleOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs six binaries")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator),
		"./examples/quickstart", "./examples/pixie3d", "./examples/xgc1",
		"./examples/interference", "./examples/timeline", "./cmd/pfsinspect")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tmp := t.TempDir()
	for _, ex := range exampleDigests {
		name, want := ex.name, ex.sha256
		cmd := exec.Command(filepath.Join(bin, name))
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sum := sha256.Sum256([]byte(strings.ReplaceAll(string(out), tmp, "$TMPDIR")))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s stdout digest = %s, want %s\n%s", name, got, want, out)
		}
	}
}
