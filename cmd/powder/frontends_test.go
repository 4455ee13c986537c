package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"powder/internal/service"
)

// TestFrontEndsAgree feeds the same BLIF bytes through the CLI's run()
// and through an in-process powderd service. Both pick the engine entry
// and bind activity in package seq, so each case must come back with the
// same result BLIF bytes, applied count and final power.
func TestFrontEndsAgree(t *testing.T) {
	dir := t.TempDir()
	const examples = "../../examples/circuits/"
	// maj3 under its own stimulus, as -dump-vcd writes it.
	vcdPath := filepath.Join(dir, "maj3.vcd")
	if err := runQuiet(t, cliDefaults(config{inPath: examples + "maj3.blif", dumpVCDPath: vcdPath})); err != nil {
		t.Fatal(err)
	}
	vcd, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	moved := 0

	for _, tc := range []struct {
		name, file, probs string
		activity          bool
	}{
		{name: "maj3", file: "maj3.blif"},
		{name: "fig2", file: "fig2.blif"},
		{name: "maj3-vcd", file: "maj3.blif", activity: true},
		{name: "counter3-probs", file: "counter3.blif", probs: "en=0.25\n"},
	} {
		body, err := os.ReadFile(examples + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cliDefaults(config{
			inPath:    examples + tc.file,
			outPath:   filepath.Join(dir, tc.name+".blif"),
			traceJSON: filepath.Join(dir, tc.name+".jsonl"),
		})
		// The zero DelayLimitPct constrains a job; -1 runs it free, as the
		// CLI does without -delay-factor.
		opts := service.JobOptions{DelayLimitPct: -1, NoCache: true}
		if tc.probs != "" {
			cfg.probsPath = writeProbs(t, tc.probs)
			opts.Probs = tc.probs
		}
		if tc.activity {
			cfg.activityPath = vcdPath
			opts.ActivityDump = vcd
		}
		if err := runQuiet(t, cfg); err != nil {
			t.Fatalf("%s: CLI: %v", tc.name, err)
		}
		cliBLIF, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		applied, finalPower := optimizeSpan(t, cfg.traceJSON)

		j, err := svc.Submit(body, opts)
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		// The job's event hub closes once the job is terminal.
		events, _ := j.Hub().Subscribe()
		for range events {
		}
		st := j.Status()
		if st.State != service.StateCompleted {
			t.Fatalf("%s: job %s: %s", tc.name, st.State, st.Error)
		}
		if !bytes.Equal(cliBLIF, j.ResultBLIF()) {
			t.Errorf("%s: result BLIF differs\nCLI:\n%s\npowderd:\n%s", tc.name, cliBLIF, j.ResultBLIF())
		}
		if st.Result.Applied != applied || st.Result.FinalPower != finalPower {
			t.Errorf("%s: powderd applied %d, final power %v; CLI %d, %v",
				tc.name, st.Result.Applied, st.Result.FinalPower, applied, finalPower)
		}
		moved += applied
	}
	// fig2 and maj3 under its stimulus move; maj3 and counter3 do not.
	if moved == 0 {
		t.Error("no case applied a substitution, so the results compare nothing")
	}
}

// cliDefaults fills in the flag defaults main would set.
func cliDefaults(cfg config) config {
	cfg.repeat, cfg.preselect, cfg.words, cfg.seed, cfg.par, cfg.inverted = 10, 12, 64, 1, 1, true
	return cfg
}

// optimizeSpan reads the applied count and final power off the run's
// root "optimize" span in a -trace-json file.
func optimizeSpan(t *testing.T, path string) (applied int, finalPower float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			Name       string  `json:"name"`
			Applied    int     `json:"attr_applied"`
			PowerFinal float64 `json:"attr_power_final"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name == "optimize" {
			return rec.Applied, rec.PowerFinal
		}
	}
	t.Fatalf("%s holds no optimize span (%v)", path, sc.Err())
	return 0, 0
}
