package main

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"powder/internal/atpg"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/service"
)

// optimizedComp runs the engine on comp the way the engine workloads do.
func optimizedComp(t *testing.T) engineOp {
	t.Helper()
	nl, err := mapped("comp", false, cellib.Lib2())
	if err != nil {
		t.Fatal(err)
	}
	op := runEngine(context.Background(), loaded{name: "comp", nl: nl, opts: workload{}.options()}, nil, nil)
	if op.err != nil {
		t.Fatal(op.err)
	}
	return op
}

// corruptGate rewires the first input pin of a primary-output driver to a
// primary input it does not read.
func corruptGate(t *testing.T, nl *netlist.Netlist) {
	t.Helper()
	g := nl.Outputs()[0].Driver
	for _, in := range nl.Inputs() {
		if !slices.Contains(nl.Node(g).Fanins(), in) {
			if err := nl.ReplaceFanin(g, 0, in); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no input to rewire to")
}

func TestOracleCountsACorruptedGate(t *testing.T) {
	op := optimizedComp(t)
	r := &report{}
	check(r, []engineOp{op}, 1)
	if r.Attempted != 1 || r.Failed != 0 {
		t.Fatalf("clean run: attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
	}

	corruptGate(t, op.final)
	r = &report{}
	check(r, []engineOp{op}, 1)
	if r.Attempted != 1 || r.Failed != 1 {
		t.Fatalf("corrupted run: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	if !strings.Contains(r.Failures[0], "differs") || !strings.Contains(r.Failures[0], "final power") {
		t.Errorf("failure should name the differing output and the power mismatch: %s", r.Failures[0])
	}
	if got := ratio(r.Failed, r.Attempted); got != 1 {
		t.Errorf("failed_frac = %v, want 1", got)
	}
}

func TestEquivalenceNeedsAConclusiveProof(t *testing.T) {
	op := optimizedComp(t)
	if msg := equivalent(op.orig, op.final, &atpg.EquivResult{Verdict: atpg.Aborted}, 1); msg != "equivalence inconclusive" {
		t.Errorf("aborted proof: %q", msg)
	}
	if msg := equivalent(op.orig, op.final, op.eq, 1); msg != "" {
		t.Errorf("equivalent result rejected: %s", msg)
	}
}

func TestRelabelMatchesOutputsByPosition(t *testing.T) {
	op := optimizedComp(t)
	renamed, err := rebuild(op.final,
		func(id netlist.NodeID) string { return op.final.Node(id).Name() },
		func(i int, _ netlist.PO) string { return "port" + string(rune('a'+i)) })
	if err != nil {
		t.Fatal(err)
	}
	back, err := relabel(op.orig, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := simDiffers(op.orig, back, 1); err != nil || out != "" {
		t.Fatalf("relabelled result differs: %q %v", out, err)
	}
	short := netlist.New("short", op.final.Lib)
	for _, id := range op.final.Inputs() {
		if _, err := short.AddInput(op.final.Node(id).Name()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := relabel(op.orig, short); err == nil {
		t.Error("a result without outputs was accepted")
	}
}

func TestDaemonOracleComparesHitsWithTheMiss(t *testing.T) {
	w, err := findWorkload("daemon-mixed", true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := generate(w, 1, true, dir); err != nil {
		t.Fatal(err)
	}
	in, files, err := loadInputs(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemonBench{in: in, files: files, lib: cellib.Lib2()}
	if err := d.prepare(); err != nil {
		t.Fatal(err)
	}
	key := 0 // the first circuit, unconstrained, uniform activity
	if k := in.Keys[key]; k.Constrained || k.Activity {
		t.Fatalf("key 0 is %+v", k)
	}
	nl, err := blif.Read(bytes.NewReader(files[in.Circuits[0].BLIF]), d.lib)
	if err != nil {
		t.Fatal(err)
	}
	op := runEngine(context.Background(), loaded{nl: nl, opts: workload{}.options()}, nil, nil)
	if op.err != nil {
		t.Fatal(op.err)
	}
	var out bytes.Buffer
	if err := blif.Write(&out, op.final); err != nil {
		t.Fatal(err)
	}
	result := &service.JobResult{InitialPower: op.res.Initial.Power, FinalPower: op.res.Final.Power, Stopped: "completed", Verified: "equivalent"}
	miss := submission{key: key, blif: out.Bytes(), status: service.Status{State: service.StateCompleted, Result: result}}
	hit := miss
	hit.status.Cached = true

	r := &report{}
	d.check(r, &daemonRep{misses: []submission{miss}, hits: []submission{hit}})
	if r.Attempted != 2 || r.Failed != 0 {
		t.Fatalf("consistent miss and hit: attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
	}

	hit.blif = append(append([]byte(nil), out.Bytes()...), '\n')
	r = &report{}
	d.check(r, &daemonRep{misses: []submission{miss}, hits: []submission{hit}})
	if r.Failed != 1 || !strings.Contains(r.Failures[0], "cache hit differs") {
		t.Fatalf("diverging hit: failed %d: %v", r.Failed, r.Failures)
	}

	bad := miss
	bad.status.Result = &service.JobResult{InitialPower: result.InitialPower, FinalPower: result.FinalPower * 1.01, Stopped: "completed", Verified: "equivalent"}
	r = &report{}
	d.check(r, &daemonRep{misses: []submission{bad}})
	if r.Failed != 1 || !strings.Contains(r.Failures[0], "final power") {
		t.Fatalf("misreported power: failed %d: %v", r.Failed, r.Failures)
	}
}
