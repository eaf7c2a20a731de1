package netcache

import (
	"os/exec"
	"testing"
)

// bench/ is its own module, so `go test ./...` here never compiles it. Vet
// it from here, or a change to an internal name the benchmark uses would
// only show when the benchmark is built.
func TestBenchModuleVets(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(gotool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
