package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"powder/internal/blif"
	"powder/internal/cellib"
)

// generated writes a workload's inputs under seed and returns every file.
func generated(t *testing.T, w workload, seed int64, smoke bool) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := generate(w, seed, smoke, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	for _, base := range workloads {
		// The daemon's full inputs are small circuits and cheap to build;
		// the others use their comp+clip inputs.
		smoke := base.Name != "daemon-mixed"
		w, err := findWorkload(base.Name, smoke)
		if err != nil {
			t.Fatal(err)
		}
		a, b := generated(t, w, 7, smoke), generated(t, w, 7, smoke)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d files", w.Name, len(a), len(b))
		}
		for name, data := range a {
			if !bytes.Equal(data, b[name]) {
				t.Errorf("%s: %s differs between two generations with one seed", w.Name, name)
			}
		}
		if _, ok := a["inputs.json"]; !ok {
			t.Errorf("%s: no inputs.json", w.Name)
		}
		if w.Profile != 0 && a[w.Circuits[0]+".vcd"] == nil {
			t.Errorf("%s: no VCD", w.Name)
		}
	}
}

// TestSeedRenamesWithoutChangingWork pins the property the benchmark's
// stability rests on: two seeds give different bytes but the engine does
// the same work on them.
func TestSeedRenamesWithoutChangingWork(t *testing.T) {
	w, err := findWorkload("heavy-seq", true)
	if err != nil {
		t.Fatal(err)
	}
	a, b := generated(t, w, 1, true), generated(t, w, 2, true)
	if bytes.Equal(a["comp.blif"], b["comp.blif"]) {
		t.Fatal("seeds 1 and 2 gave the same BLIF")
	}
	lib := cellib.Lib2()
	run := func(data []byte) engineOp {
		nl, err := blif.Read(bytes.NewReader(data), lib)
		if err != nil {
			t.Fatal(err)
		}
		op := runEngine(context.Background(), loaded{nl: nl, opts: w.options()}, nil, nil)
		if op.err != nil {
			t.Fatal(op.err)
		}
		return op
	}
	ra, rb := run(a["comp.blif"]).res, run(b["comp.blif"]).res
	if ra.Applied != rb.Applied || ra.Candidates != rb.Candidates || ra.CheckStats != rb.CheckStats || ra.Final.Power != rb.Final.Power {
		t.Errorf("work differs across seeds: %d/%d/%+v/%v vs %d/%d/%+v/%v",
			ra.Applied, ra.Candidates, ra.CheckStats, ra.Final.Power, rb.Applied, rb.Candidates, rb.CheckStats, rb.Final.Power)
	}
	direct, err := mapped("comp", false, lib)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, direct); err != nil {
		t.Fatal(err)
	}
	if rd := run(buf.Bytes()).res; rd.Final.Power != ra.Final.Power || rd.Applied != ra.Applied {
		t.Errorf("renamed circuit optimizes differently from the mapped one: %v/%d vs %v/%d", ra.Final.Power, ra.Applied, rd.Final.Power, rd.Applied)
	}
}

func TestDaemonScriptMissesEveryKeyOnceInAFixedOrder(t *testing.T) {
	const keys, hits = 48, 600
	misses1, hits1 := daemonScript(keys, hits, 1)
	for _, seed := range []int64{2, 3} {
		misses, repeats := daemonScript(keys, hits, seed)
		if !slices.Equal(misses, misses1) {
			t.Fatalf("seed %d misses in another order", seed)
		}
		if len(repeats) != hits {
			t.Fatalf("seed %d: %d hits, want %d", seed, len(repeats), hits)
		}
		for i, k := range repeats {
			if k < 0 || k >= keys {
				t.Fatalf("seed %d: hit %d has key %d", seed, i, k)
			}
		}
		if slices.Equal(repeats, hits1) {
			t.Errorf("seeds 1 and %d repeat the same keys", seed)
		}
	}
	sorted := slices.Clone(misses1)
	slices.Sort(sorted)
	for k := range sorted {
		if sorted[k] != k {
			t.Fatalf("misses %v are not every key once", misses1)
		}
	}
}
