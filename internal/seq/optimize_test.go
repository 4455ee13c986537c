package seq

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/core"
	"powder/internal/obs"
	"powder/internal/power"
)

// maj3 is a latch-free circuit whose inputs share no name with
// redundant2's.
const maj3 = `
.model maj3
.inputs a b c
.outputs y
.gate and2 a=a b=b O=ab
.gate and2 a=a b=c O=ac
.gate and2 a=b b=c O=bc
.gate or2 a=ab b=ac O=t
.gate or2 a=t b=bc O=y
.end
`

// redundant2 is a sequential circuit whose next-state cone contains
// redundancy (n0 recomputes q0∧en twice), giving the optimizer room to
// move while the counter structure keeps the fixpoint interesting.
const redundant2 = `
.model redundant2
.inputs en
.outputs obs
.latch n0 q0 re clk 0
.latch n1 q1 re clk 0
.gate and2 a=en b=q0 O=t0
.gate and2 a=q0 b=en O=t1
.gate or2 a=t0 b=t1 O=n0
.gate xor2 a=q1 b=t0 O=n1
.gate or2 a=q1 b=t1 O=obs
.end
`

func TestOptimizeSequential(t *testing.T) {
	c := mustCircuit(t, redundant2)
	before := c.Core().Clone()

	res, err := Optimize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixpoint == nil || res.Fixpoint.Residual > 1e-6 {
		t.Fatalf("fixpoint did not converge: %+v", res.Fixpoint)
	}
	if res.Core.Final.Power > res.Core.Initial.Power {
		t.Errorf("power increased: %.4f -> %.4f", res.Core.Initial.Power, res.Core.Final.Power)
	}

	// The optimized core must stay combinationally equivalent at the
	// register cut (outputs include the next-state pseudo-POs).
	eq, err := atpg.Equivalent(before, c.Core(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Verdict != atpg.Permissible {
		t.Fatalf("optimized core not equivalent at the cut: %+v", eq)
	}

	// The result must still write as valid sequential BLIF and round-trip.
	var buf bytes.Buffer
	if err := blif.WriteModel(&buf, c.Model); err != nil {
		t.Fatal(err)
	}
	back, err := blif.ReadModel(bytes.NewReader(buf.Bytes()), cellib.Lib2())
	if err != nil {
		t.Fatalf("optimized BLIF unreadable: %v\n%s", err, buf.String())
	}
	if len(back.Latches) != c.NumLatches() {
		t.Errorf("latch count changed: %d -> %d", c.NumLatches(), len(back.Latches))
	}
}

// TestOptimizeSeedsStateProbs pins that the converged state probabilities
// actually reach the power model: with en=0 the counter freezes and every
// state line has probability 0, so total power must be far below the
// all-0.5 default.
func TestOptimizeSeedsStateProbs(t *testing.T) {
	frozen := mustCircuit(t, counter2)
	resFrozen, err := Optimize(frozen, Options{
		Fixpoint: FixpointOptions{InputProbs: []float64{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	free := mustCircuit(t, counter2)
	resFree, err := Optimize(free, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resFrozen.Core.Initial.Power >= resFree.Core.Initial.Power/4 {
		t.Errorf("frozen counter power %.5f should be well below free-running %.5f",
			resFrozen.Core.Initial.Power, resFree.Core.Initial.Power)
	}
}

func TestOptimizeDivergencePropagates(t *testing.T) {
	c := mustCircuit(t, crossCoupled)
	_, err := Optimize(c, Options{Fixpoint: FixpointOptions{Damping: -1, MaxIter: 10}})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence should abort the run, got %v", err)
	}
}

// TestRecordMetricsFoldsFixpoint pins the sequential fold: a converged
// run counts seq.fixpoint.converged, observes its iteration count and
// folds its core result; a diverged fixpoint counts
// seq.fixpoint.diverged and nothing else.
func TestRecordMetricsFoldsFixpoint(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Optimize(mustCircuit(t, redundant2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	RecordMetrics(reg, res, err)
	snap := reg.Snapshot()
	if got := snap.Counters["seq.fixpoint.converged"]; got != 1 {
		t.Errorf("seq.fixpoint.converged = %d, want 1", got)
	}
	if h := snap.Histograms["seq.fixpoint.iterations"]; h.Count != 1 || h.Sum != float64(res.Fixpoint.Iterations) {
		t.Errorf("seq.fixpoint.iterations = %+v, want one observation of %d", h, res.Fixpoint.Iterations)
	}
	if got := snap.Counters["atpg.checks"]; got != int64(res.Core.CheckStats.Checks) || got == 0 {
		t.Errorf("atpg.checks = %d, want the core result's %d", got, res.Core.CheckStats.Checks)
	}

	reg = obs.NewRegistry()
	res, err = Optimize(mustCircuit(t, crossCoupled), Options{Fixpoint: FixpointOptions{Damping: -1, MaxIter: 10}})
	RecordMetrics(reg, res, err)
	snap = reg.Snapshot()
	if got := snap.Counters["seq.fixpoint.diverged"]; got != 1 || len(snap.Counters) != 1 || len(snap.Histograms) != 0 {
		t.Errorf("diverged run recorded %+v, want only seq.fixpoint.diverged = 1", snap)
	}
	RecordMetrics(nil, res, err)
}

// TestOptimizeRespectsCoreOptions smoke-checks that caller core options
// survive the seeding (ledger on, bounded substitutions).
func TestOptimizeRespectsCoreOptions(t *testing.T) {
	c := mustCircuit(t, redundant2)
	res, err := Optimize(c, Options{Core: core.Options{MaxSubstitutions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core.Applied > 1 {
		t.Errorf("MaxSubstitutions=1 ignored: applied %d", res.Core.Applied)
	}
}

func TestOptimizeWithActivityBinding(t *testing.T) {
	// Core inputs of redundant2: en, then state lines q0, q1. The
	// binding pins en's probability (seeding the fixpoint), asserts the
	// observed q1 distribution over the converged one, and pins toggle
	// densities across the cut.
	c := mustCircuit(t, redundant2)
	nan := math.NaN()
	b := &activity.Binding{
		Probs:   []float64{0.9, 0.5, 0.25},
		Toggles: []float64{0.18, nan, 0.375},
		Matched: []bool{true, false, true},
	}
	res, err := Optimize(c, Options{Activity: b})
	if err != nil {
		t.Fatal(err)
	}
	// The fixpoint ran under the seeded p(en)=0.9.
	if got := res.Fixpoint.InputProbs[0]; got != 0.9 {
		t.Fatalf("fixpoint seeded with p(en)=%g, want 0.9", got)
	}
	// An unmatched state line keeps its converged value; the matched one
	// is overridden in the vector handed to the power model — visible
	// through the run having used biased vectors (initial power differs
	// from the uniform run).
	uniform, err := Optimize(mustCircuit(t, redundant2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core.Initial.Power == uniform.Core.Initial.Power {
		t.Fatal("activity binding did not change the initial estimate")
	}

	// Length mismatch is an explicit error, not a silent partial bind.
	short := &activity.Binding{Probs: []float64{0.5}, Toggles: []float64{nan}, Matched: []bool{true}}
	if _, err := Optimize(mustCircuit(t, redundant2), Options{Activity: short}); err == nil {
		t.Fatal("short binding accepted")
	} else if !strings.Contains(err.Error(), "core inputs") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestOptimizeLatchFree pins the latch-free entry: no fixpoint, and the
// engine runs on the caller's workload exactly as core.OptimizeCtx would
// — nil probabilities stay nil, so a small circuit keeps exhaustive
// simulation, and given ones pass through unchanged.
func TestOptimizeLatchFree(t *testing.T) {
	for _, probs := range [][]float64{nil, {0.9, 0.2, 0.5}} {
		c := mustCircuit(t, maj3)
		direct := c.Core().Clone()
		res, err := Optimize(c, Options{Fixpoint: FixpointOptions{InputProbs: probs}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fixpoint != nil {
			t.Fatalf("latch-free run has a fixpoint: %+v", res.Fixpoint)
		}
		want, err := core.Optimize(direct, core.Options{Power: power.Options{InputProbs: probs}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Core.Initial.Power != want.Initial.Power || res.Core.Final.Power != want.Final.Power ||
			res.Core.Applied != want.Applied {
			t.Errorf("probs %v: seq run %.6f -> %.6f (%d applied), core run %.6f -> %.6f (%d applied)", probs,
				res.Core.Initial.Power, res.Core.Final.Power, res.Core.Applied,
				want.Initial.Power, want.Final.Power, want.Applied)
		}

		reg := obs.NewRegistry()
		RecordMetrics(reg, res, err)
		snap := reg.Snapshot()
		if _, ok := snap.Counters["seq.fixpoint.converged"]; ok {
			t.Error("latch-free run counted a converged fixpoint")
		}
		if got := snap.Counters["core.applied"]; got != int64(res.Core.Applied) {
			t.Errorf("core.applied = %d, want %d", got, res.Core.Applied)
		}
	}
}

// TestBindActivity pins the one activity binding: core-input order
// (true inputs, then state lines), the ledger label, and the loud
// failure of a dump that matches no input.
func TestBindActivity(t *testing.T) {
	c := mustCircuit(t, redundant2)
	var vcd bytes.Buffer
	if _, err := activity.DumpVCD(&vcd, c.Core(), activity.DumpOptions{Words: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	prof, err := activity.Read(bytes.NewReader(vcd.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, label, err := c.BindActivity(prof, "runs/redundant2.vcd")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"en", "q0", "q1"}; !slices.Equal(b.Names, want) {
		t.Errorf("bound names %v, want %v", b.Names, want)
	}
	if want := "redundant2.vcd sha256:" + prof.Digest()[:12] + " matched 3/3 inputs (100%)"; label != want {
		t.Errorf("label %q, want %q", label, want)
	}
	if _, label, _ := c.BindActivity(prof, prof.Source); !strings.HasPrefix(label, "vcd sha256:") {
		t.Errorf("format-named label %q", label)
	}

	other := mustCircuit(t, maj3)
	if _, _, err := other.BindActivity(prof, "dump.vcd"); err == nil || !strings.Contains(err.Error(), "dump.vcd matched none") {
		t.Fatalf("zero-match dump: err = %v", err)
	}
}
