package core

import (
	"context"
	"testing"

	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/transform"
)

// TestParallelMatchesSequential: a -par 4 run must preserve function
// (proved by atpg.Equivalent, independently of the engine's own proofs)
// and land within estimator tolerance of the default one-region run's
// final power on a real Table-1 circuit.
func TestParallelMatchesSequential(t *testing.T) {
	seqNl := compileBenchmark(t, "comp")
	parNl := seqNl.Clone()
	input := seqNl.Clone()

	seqRes, err := Optimize(seqNl, Options{Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Optimize(parNl, Options{
		Parallelism: 4,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustEquivalent(t, input, parNl, "comp -par 4")

	if parRes.Parallel == nil {
		t.Fatal("parallel run carries no ParallelStats")
	}
	if parRes.Parallel.Rounds < 1 || parRes.Parallel.Workers != 4 {
		t.Fatalf("stats: %+v", parRes.Parallel)
	}
	if parRes.Applied == 0 {
		t.Fatal("parallel run applied nothing on comp")
	}
	if seqRes.Parallel != nil {
		t.Fatal("sequential run carries ParallelStats")
	}

	// Different application orders legitimately pick different greedy
	// paths; both engines must still deliver a real reduction, and the
	// parallel result must stay within tolerance of the sequential one.
	if parRes.Final.Power >= parRes.Initial.Power {
		t.Fatalf("parallel run did not reduce power: %.4f -> %.4f",
			parRes.Initial.Power, parRes.Final.Power)
	}
	if parRes.Final.Power > seqRes.Final.Power*1.05 {
		t.Fatalf("parallel final power %.4f vs sequential %.4f (>5%% worse)",
			parRes.Final.Power, seqRes.Final.Power)
	}
}

// TestParallelismOneIsDefault: Parallelism values <= 1 all run one
// region (same result) and report no parallel stats.
func TestParallelismOneIsDefault(t *testing.T) {
	a := compileBenchmark(t, "clip")
	b := a.Clone()
	ra, err := Optimize(a, Options{Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Optimize(b, Options{Parallelism: 1, Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Parallel != nil {
		t.Fatal("-par 1 run carries ParallelStats")
	}
	if ra.Applied != rb.Applied || ra.Final.Power != rb.Final.Power {
		t.Fatalf("-par 1 diverged: applied %d/%d power %.6f/%.6f",
			ra.Applied, rb.Applied, ra.Final.Power, rb.Final.Power)
	}
	if !exhaustiveEqual(t, a, b) {
		t.Fatal("-par 1 and default netlists differ")
	}
}

// TestParallelDeterministic: a fixed -par P run commits regions in a
// deterministic order and its workers share no proof state, so two runs
// from identical inputs agree on the netlist and on the proof effort:
// checks, verdicts, vector refutations, conflicts and decisions.
func TestParallelDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  int
	}{{"clip", 4}, {"x3", 2}, {"x3", 4}} {
		a := compileBenchmark(t, tc.name)
		b := a.Clone()
		opts := Options{Parallelism: tc.par, Transform: transform.Config{AllowInverted: true}}
		ra, err := Optimize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Optimize(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Applied != rb.Applied || ra.Final.Power != rb.Final.Power {
			t.Fatalf("%s: two -par %d runs diverged: applied %d/%d power %.6f/%.6f",
				tc.name, tc.par, ra.Applied, rb.Applied, ra.Final.Power, rb.Final.Power)
		}
		if ra.CheckStats != rb.CheckStats {
			t.Fatalf("%s: two -par %d runs proved differently: %+v / %+v", tc.name, tc.par, ra.CheckStats, rb.CheckStats)
		}
		if a.StructuralHash() != b.StructuralHash() {
			t.Fatalf("%s: two -par %d runs produced different netlists", tc.name, tc.par)
		}
		if tc.name == "x3" && ra.CheckStats.VectorRefuted == 0 {
			t.Errorf("x3 -par %d: no vector refutation to compare", tc.par)
		}
	}
}

// TestParallelCorruptedCommitRollsBack is the conflict/rollback hammer:
// fault injection corrupts every second commit, which the journaled apply
// must catch and roll back; the broken-chain rule then forces serial
// re-proofs of the region's later proposals. The run must stay
// functionally intact and still reduce power. Run under -race this also
// exercises worker isolation.
func TestParallelCorruptedCommitRollsBack(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	input := nl.Clone()
	capture := &captureSink{}
	// Corrupt every other commit by call count (the commit phase is
	// serial, so a plain counter is race-free); the stock
	// CorruptEveryApply keys on the applied count, which a rollback never
	// advances, and would therefore corrupt every commit forever.
	calls := 0
	corrupt := func(nl *netlist.Netlist, applied int) error {
		calls++
		if calls%2 == 1 {
			return faultinject.InvertOutput(nl, 0)
		}
		return nil
	}
	res, err := OptimizeCtx(capture.traced(context.Background()), nl, Options{
		Parallelism: 8,
		VerifyEvery: 2,
		Transform:   transform.Config{AllowInverted: true},
		Inject:      &faultinject.Hooks{CorruptApply: corrupt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejects[RejectRollback] == 0 {
		t.Fatal("no rollbacks despite injected corruption")
	}
	if res.Applied == 0 {
		t.Fatal("nothing survived the corruption hammer")
	}
	mustEquivalent(t, input, nl, "comp -par 8 corrupted")
	if res.Final.Power >= res.Initial.Power {
		t.Fatalf("no reduction under rollback hammer: %.4f -> %.4f",
			res.Initial.Power, res.Final.Power)
	}
	if res.Parallel == nil || res.Parallel.Rounds == 0 {
		t.Fatalf("missing parallel stats: %+v", res.Parallel)
	}
}

// TestParallelTinyCircuit: more workers than useful regions must degrade
// gracefully (regions <= parallelism, possibly 1) and still optimize.
func TestParallelTinyCircuit(t *testing.T) {
	nl := redundantCircuit(t)
	ref := nl.Clone()
	res, err := Optimize(nl, Options{
		Parallelism: 8,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied == 0 {
		t.Fatal("nothing applied on the redundant circuit")
	}
	if !exhaustiveEqual(t, ref, nl) {
		t.Fatal("tiny parallel run broke function")
	}
}

// TestUntracedCandidateAllocs: without a tracer, opening a selected
// candidate's span allocates no more than a bare span under the run's
// phase table. The attributes an untraced span drops are never formatted.
func TestUntracedCandidateAllocs(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	cands := transform.Generate(nl, power.Estimate(nl, powerOptsSmall()), transform.Config{AllowInverted: true})
	if len(cands) == 0 {
		t.Fatal("no candidates on comp")
	}
	ctx, root := trace.StartTable(context.Background(), "optimize")
	defer root.End()
	bare := testing.AllocsPerRun(100, func() {
		_, sp := trace.StartSpan(ctx, "candidate")
		sp.End()
	})
	// A region past 255 would box to a fresh allocation.
	cand := testing.AllocsPerRun(100, func() {
		_, sp := startCandidate(ctx, cands[0], 300)
		sp.End()
	})
	if cand > bare {
		t.Errorf("untraced startCandidate: %v allocations, a bare span %v", cand, bare)
	}
}
