package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/core"
	"powder/internal/obs"
)

// runQuiet runs with discarded output streams.
func runQuiet(t *testing.T, cfg config) error {
	t.Helper()
	var stdout, stderr bytes.Buffer
	return run(context.Background(), cfg, &stdout, &stderr)
}

func TestRunBuiltinCircuitEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "opt.blif")
	cfg := config{
		circuit: "t481", outPath: out, delayFactor: 1.0,
		repeat: 10, preselect: 12, words: 16, seed: 1, inverted: true, verify: true,
	}
	if err := runQuiet(t, cfg); err != nil {
		t.Fatal(err)
	}
	// The written netlist must parse back against the default library.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nl, err := blif.Read(f, cellib.Lib2())
	if err != nil {
		t.Fatalf("output BLIF unreadable: %v", err)
	}
	if nl.GateCount() == 0 {
		t.Fatalf("empty output netlist")
	}
}

func TestRunFileInputWithCustomLibrary(t *testing.T) {
	dir := t.TempDir()
	libPath := filepath.Join(dir, "lib.genlib")
	blifPath := filepath.Join(dir, "c.blif")
	libSrc := `
GATE inv1  10 O=!a;      PIN * INV 1.0 999 0.3 0.10 0.3 0.10
GATE nand2 16 O=!(a*b);  PIN * INV 1.0 999 0.5 0.12 0.5 0.12
`
	blifSrc := `
.model t
.inputs a b
.outputs y
.gate nand2 a=a b=b O=n1
.gate inv1 a=n1 O=y
.end
`
	if err := os.WriteFile(libPath, []byte(libSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blifPath, []byte(blifSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		inPath: blifPath, libPath: libPath,
		repeat: 10, preselect: 12, words: 8, seed: 1, inverted: true,
	}
	if err := runQuiet(t, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunArgumentValidation(t *testing.T) {
	base := config{repeat: 10, preselect: 12, words: 8, seed: 1, inverted: true}

	cfg := base
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("no input should fail")
	}
	cfg = base
	cfg.inPath, cfg.circuit = "x.blif", "t481"
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("both -in and -circuit should fail")
	}
	cfg = base
	cfg.circuit = "nonexistent-circuit"
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("unknown circuit should fail")
	}
	cfg = base
	cfg.inPath = "/nonexistent/path.blif"
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("missing input file should fail")
	}
	cfg = base
	cfg.circuit, cfg.words = "t481", 0
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("words <= 0 should fail")
	}
	cfg = base
	cfg.circuit, cfg.repeat = "t481", -1
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("negative repeat should fail")
	}
	cfg = base
	cfg.circuit, cfg.timeout = "t481", -time.Second
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("negative timeout should fail")
	}
	cfg = base
	cfg.circuit, cfg.maxRetries = "t481", -1
	if err := runQuiet(t, cfg); err == nil {
		t.Errorf("negative max-retries should fail")
	}
}

// TestRunMalformedBLIF pins the CLI failure contract: broken input yields
// a clear error (propagated to a non-zero exit in main), never a panic.
func TestRunMalformedBLIF(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"truncated.blif": ".model t\n.inputs a b\n.outputs y\n.gate nand2B a=a b=b O=y\n",
		"dup-model.blif": ".model t\n.model t2\n.inputs a\n.outputs y\n.end\n",
		"unknown.blif":   ".model t\n.inputs a b\n.outputs y\n.gate bogus a=a b=b O=y\n.end\n",
		"garbage.blif":   "\x00\x01\x02 not blif at all",
	}
	for name, src := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := config{inPath: p, repeat: 10, preselect: 12, words: 8, seed: 1, inverted: true}
		if err := runQuiet(t, cfg); err == nil {
			t.Errorf("%s: malformed BLIF accepted", name)
		}
	}
}

// TestRunWithTimeout pins the deadline contract: a tiny -timeout run
// still terminates promptly, reports the stop reason, and writes a valid
// netlist.
func TestRunWithTimeout(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "opt.blif")
	var stdout, stderr bytes.Buffer
	cfg := config{
		circuit: "apex1", outPath: out, timeout: 50 * time.Millisecond,
		repeat: 10, preselect: 12, words: 16, seed: 1, inverted: true, verify: true,
	}
	start := time.Now()
	if err := run(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout run took %v, want prompt termination", elapsed)
	}
	if !strings.Contains(stdout.String(), "stopped early: deadline") {
		t.Errorf("report missing stop reason:\n%s", stdout.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := blif.Read(f, cellib.Lib2()); err != nil {
		t.Fatalf("output BLIF unreadable after timeout: %v", err)
	}
}

func TestRunWithResizeAndVerify(t *testing.T) {
	cfg := config{
		circuit: "clip", delayFactor: 1.0,
		repeat: 10, preselect: 12, words: 16, seed: 1,
		inverted: true, resize: true, verify: true,
	}
	if err := runQuiet(t, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerilogOutput(t *testing.T) {
	dir := t.TempDir()
	v := filepath.Join(dir, "opt.v")
	cfg := config{
		circuit: "clip", vlogPath: v,
		repeat: 10, preselect: 12, words: 16, seed: 1, inverted: true,
	}
	if err := runQuiet(t, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "module clip(") || !strings.Contains(string(data), "endmodule") {
		t.Errorf("verilog output malformed")
	}
}

// TestVerboseTracesGoToStderr pins the stream contract: -v substitution
// traces are stderr-only, stdout stays a clean report.
func TestVerboseTracesGoToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cfg := config{
		circuit: "t481", repeat: 10, preselect: 12, words: 16, seed: 1,
		inverted: true, verbose: true,
	}
	if err := run(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout.String(), "apply ") {
		t.Errorf("stdout contains substitution traces:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "circuit: t481") {
		t.Errorf("stdout lost the report:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "apply ") {
		t.Errorf("stderr has no substitution traces:\n%s", stderr.String())
	}
}

// TestVerboseSinkRendersDecidedCandidates pins the -v line format: one
// line per candidate span with a final outcome, nothing for a region
// worker's "proposed" span or any other event.
func TestVerboseSinkRendersDecidedCandidates(t *testing.T) {
	var out bytes.Buffer
	sink := verboseSink(&out)
	candidate := func(outcome string) obs.Event {
		return obs.Event{Name: "span", Fields: obs.Fields{
			"name": "candidate", "span": int64(7), "attr_outcome": outcome,
			"attr_kind": "OS2", "attr_gain": 0.5, "attr_sub": "OS2 stem 3 <- 4",
		}}
	}
	sink.Emit(candidate("proposed"))
	sink.Emit(candidate("applied"))
	sink.Emit(candidate(core.RejectRefuted))
	sink.Emit(obs.Event{Name: "span", Fields: obs.Fields{"name": "atpg-check", "attr_verdict": "refuted"}})
	sink.Emit(obs.Event{Name: "metrics"})
	want := "apply gain=0.5 kind=OS2 sub=OS2 stem 3 <- 4\n" +
		"reject reason=refuted gain=0.5 kind=OS2 sub=OS2 stem 3 <- 4\n"
	if out.String() != want {
		t.Errorf("-v lines:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestTraceJSONAndMetrics pins the acceptance contract of the
// observability flags: the JSONL trace holds the run's span ends —
// harvest, atpg-check and candidate spans, candidates both applied and
// rejected, every reject with its reason code — plus a final metrics
// block whose phase durations account for the run time.
func TestTraceJSONAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	var stdout, stderr bytes.Buffer
	cfg := config{
		circuit: "9sym", repeat: 10, preselect: 12, words: 16, seed: 1,
		inverted: true, traceJSON: tracePath, metrics: true,
	}
	if err := run(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	reasons := map[string]bool{}
	for _, r := range []string{core.RejectStale, core.RejectLowGain, core.RejectDelay, core.RejectRefuted,
		core.RejectAborted, core.RejectApplyConflict, core.RejectRollback} {
		reasons[r] = true
	}
	spans, outcomes := map[string]int{}, map[string]int{}
	var metricsRec map[string]any
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		switch rec["event"] {
		case "span":
			name, _ := rec["name"].(string)
			spans[name]++
			if name != "candidate" {
				continue
			}
			switch outcome, _ := rec["attr_outcome"].(string); {
			case outcome == "applied":
				outcomes["applied"]++
			case outcome == "proposed":
			case reasons[outcome]:
				outcomes["rejected"]++
			default:
				t.Errorf("rejected candidate without a reason code: %v", rec)
			}
		case "metrics":
			metricsRec = rec
		default:
			t.Errorf("line %d is neither a span nor the metrics record: %v", i+1, rec)
		}
	}
	for _, want := range []string{"harvest", "atpg-check", "candidate"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, spans)
		}
	}
	if outcomes["applied"] == 0 || outcomes["rejected"] == 0 {
		t.Errorf("candidate outcomes %v, want both applied and rejected", outcomes)
	}
	if metricsRec == nil {
		t.Fatalf("no final metrics block")
	}
	phases, ok := metricsRec["phases"].(map[string]any)
	if !ok || len(phases) == 0 {
		t.Fatalf("metrics block has no phases: %v", metricsRec)
	}
	sum := 0.0
	for _, v := range phases {
		sum += v.(float64)
	}
	runtime := metricsRec["runtime_seconds"].(float64)
	if sum < 0.9*runtime || sum > 1.1*runtime {
		t.Errorf("phase durations sum to %.4fs, want within 10%% of runtime %.4fs", sum, runtime)
	}

	// -metrics prints the registry to stderr, not stdout.
	if !strings.Contains(stderr.String(), "phases:") {
		t.Errorf("stderr missing metrics block:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "phases:") {
		t.Errorf("stdout polluted by metrics block")
	}
}

// TestProfilesWritten exercises the pprof hooks end to end.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	cfg := config{
		circuit: "t481", repeat: 10, preselect: 12, words: 16, seed: 1,
		inverted: true, cpuProfile: cpu, memProfile: mem,
	}
	if err := runQuiet(t, cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
