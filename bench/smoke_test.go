package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's workload child,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs comp and clip through every workload shape, untraced and
// traced, against a freshly built powderd, and checks that every metric
// comes out by name for every workload and every output checks out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds powderd and runs every workload shape")
	}
	dir := t.TempDir()
	powderd := filepath.Join(dir, "powderd")
	if out, err := exec.Command("go", "build", "-o", powderd, "powder/cmd/powderd").CombinedOutput(); err != nil {
		t.Fatalf("build powderd: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	code := benchMain([]string{"-smoke", "-seed", "3", "-powderd", powderd,
		"-results", filepath.Join(dir, "results"), "-work", filepath.Join(dir, "work")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Fatalf("result: correct %v, attempted %d, failed %d", last.Correct, last.Attempted, last.Failed)
	}
	printed := map[string]bool{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 5 && strings.HasPrefix(f[4], "n=") {
			printed[f[0]+" "+f[1]] = true
		}
	}
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if !printed[w.Name+" "+d.Name] {
					t.Errorf("%s %s not printed", w.Name, d.Name)
				}
				if _, ok := last.Metrics[w.Name+"."+d.Name]; !ok {
					t.Errorf("%s.%s missing from the result object", w.Name, d.Name)
				}
			}
		}
	}
	sets, err := filepath.Glob(filepath.Join(dir, "results", "set-seed3-*.json"))
	if err != nil || len(sets) != 1 {
		t.Fatalf("results set: %v %v", sets, err)
	}
	perfetto, err := filepath.Glob(filepath.Join(dir, "results", "*.perfetto.json"))
	if err != nil || len(perfetto) != len(workloads) {
		t.Errorf("Perfetto traces: %v %v", perfetto, err)
	}
}
