package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"powder/internal/faultinject"
	"powder/internal/obs"
	"powder/internal/transform"
)

// attributionTolerance is the acceptance bound of the ledger contract:
// the applied moves' realized gains must sum to the headline power drop
// within this absolute tolerance.
const attributionTolerance = 1e-9

// checkAttribution asserts the telescoping property on one result.
func checkAttribution(t *testing.T, label string, res *Result) {
	t.Helper()
	led := res.Ledger
	if led == nil {
		t.Fatalf("%s: Ledger is nil with the ledger enabled", label)
	}
	headline := res.Initial.Power - res.Final.Power
	if diff := math.Abs(led.RealizedGain - headline); diff > attributionTolerance {
		t.Errorf("%s: sum of realized gains %.12g != headline drop %.12g (diff %.3g)",
			label, led.RealizedGain, headline, diff)
	}
	if led.Applied != res.Applied {
		t.Errorf("%s: ledger Applied = %d, Result.Applied = %d", label, led.Applied, res.Applied)
	}
	// Each retained move's cone must decompose its own realized gain.
	for _, m := range led.Moves {
		var coneSum float64
		for _, d := range m.Cone {
			coneSum += d.Delta
		}
		if diff := math.Abs(coneSum - m.RealizedGain); diff > attributionTolerance {
			t.Errorf("%s: move %d cone sums to %.12g, realized %.12g (diff %.3g)",
				label, m.Seq, coneSum, m.RealizedGain, diff)
		}
	}
}

// TestLedgerAttributionSumsToHeadline is the acceptance property: on real
// circuits, the per-substitution realized gains recorded by the ledger
// telescope to Initial.Power - Final.Power within 1e-9.
func TestLedgerAttributionSumsToHeadline(t *testing.T) {
	for _, name := range []string{"comp", "clip", "t481"} {
		nl := compileBenchmark(t, name)
		res, err := Optimize(nl, Options{
			Power:     powerOptsSmall(),
			Transform: transform.Config{AllowInverted: true},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Applied == 0 {
			t.Fatalf("%s: no substitutions applied; property vacuous", name)
		}
		checkAttribution(t, name, res)
		if res.Ledger.Attempts < res.Applied {
			t.Errorf("%s: Attempts %d < Applied %d", name, res.Ledger.Attempts, res.Applied)
		}
	}
}

// TestLedgerAttributionSurvivesRollbacks pins the property under the
// transactional-apply recovery path: intermittent corruption forces
// rollbacks, whose power resyncs must restore the model exactly so the
// telescoping sum still matches.
func TestLedgerAttributionSurvivesRollbacks(t *testing.T) {
	nl := compileBenchmark(t, "clip")
	res, err := Optimize(nl, Options{
		Power:     powerOptsSmall(),
		Transform: transform.Config{AllowInverted: true},
		Inject:    &faultinject.Hooks{CorruptApply: faultinject.CorruptEveryApply(0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejects[RejectRollback] == 0 {
		t.Fatal("no rollbacks triggered; scenario vacuous")
	}
	checkAttribution(t, "clip+rollbacks", res)
	// Rolled-back attempts must be in the ledger as rejects, not moves.
	if res.Ledger.Rejected[RejectRollback] != res.Rejects[RejectRollback] {
		t.Errorf("ledger rollback count %d, result %d",
			res.Ledger.Rejected[RejectRollback], res.Rejects[RejectRollback])
	}
}

// TestLedgerAttributionUnderDeadline pins the property on the early-stop
// path: a tight deadline ends the run mid-flight, and the partial ledger
// must still sum to the partial headline.
func TestLedgerAttributionUnderDeadline(t *testing.T) {
	for _, timeout := range []time.Duration{time.Millisecond, 20 * time.Millisecond} {
		nl := compileBenchmark(t, "t481")
		res, err := Optimize(nl, Options{
			Power:     powerOptsSmall(),
			Transform: transform.Config{AllowInverted: true},
			Timeout:   timeout,
		})
		if err != nil {
			t.Fatalf("timeout %v: %v", timeout, err)
		}
		checkAttribution(t, "t481+deadline", res)
	}
}

// TestLedgerRecordsProofsAndRejects pins the provenance content: applied
// moves carry proof records with the permissible verdict, and reject
// entries carry their reason.
func TestLedgerRecordsProofsAndRejects(t *testing.T) {
	nl := redundantCircuit(t)
	res, err := Optimize(nl, Options{
		Transform: transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied == 0 {
		t.Fatal("no substitutions applied")
	}
	for _, m := range res.Ledger.Moves {
		if m.Outcome != obs.LedgerApplied {
			t.Errorf("move %d outcome %q", m.Seq, m.Outcome)
		}
		if m.Proof == nil || m.Proof.Verdict != "permissible" {
			t.Errorf("move %d proof = %+v, want permissible verdict", m.Seq, m.Proof)
		}
		if m.Kind == "" || m.Target == "" || m.Source == "" {
			t.Errorf("move %d missing provenance: %+v", m.Seq, m)
		}
		if m.Region != 0 {
			t.Errorf("move %d of a one-region run carries region %d", m.Seq, m.Region)
		}
	}
	for _, r := range res.Ledger.Rejects {
		if r.Outcome != obs.LedgerRejected || r.Reason == "" {
			t.Errorf("reject entry %d missing reason: %+v", r.Seq, r)
		}
		if r.Region != 0 {
			t.Errorf("reject entry %d of a one-region run carries region %d", r.Seq, r.Region)
		}
	}
}

// TestLedgerMarksVectorRefutations pins that the ledger marks a proof a
// stored counterexample vector refuted, and not a SAT refutation: the
// marked proofs are exactly the run's vector refutations, the unmarked
// refuted ones exactly its SAT refutations, and the mark is written as
// "vector_refuted" only where it is set.
func TestLedgerMarksVectorRefutations(t *testing.T) {
	for _, par := range []int{1, 2} {
		res, err := Optimize(compileBenchmark(t, "comp"), Options{
			Parallelism: par,
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var byVector, bySAT []*obs.LedgerProof
		for _, a := range slices.Concat(res.Ledger.Moves, res.Ledger.Rejects) {
			switch {
			case a.Proof == nil:
			case a.Proof.VectorRefuted:
				if a.Reason != RejectRefuted {
					t.Errorf("-par %d: %s %s %s is marked vector-refuted but %s %s", par, a.Kind, a.Target, a.Source, a.Outcome, a.Reason)
				}
				byVector = append(byVector, a.Proof)
			case a.Reason == RejectRefuted:
				bySAT = append(bySAT, a.Proof)
			}
		}
		cs := res.CheckStats
		if len(byVector) != cs.VectorRefuted || len(bySAT) != cs.Refuted-cs.VectorRefuted {
			t.Errorf("-par %d: the ledger marks %d refutations and leaves %d unmarked; the checkers refuted %d by a vector and %d by SAT",
				par, len(byVector), len(bySAT), cs.VectorRefuted, cs.Refuted-cs.VectorRefuted)
		}
		if len(byVector) == 0 || len(bySAT) == 0 {
			t.Fatalf("-par %d: %d vector and %d SAT refutations; the run cannot tell them apart", par, len(byVector), len(bySAT))
		}
		t.Logf("-par %d: %d vector and %d SAT refutations", par, len(byVector), len(bySAT))
		// A struct of plain fields always marshals.
		if b, _ := json.Marshal(byVector[0]); !strings.Contains(string(b), `"vector_refuted":true`) {
			t.Errorf("-par %d: a vector refutation written as %s", par, b)
		}
		if b, _ := json.Marshal(bySAT[0]); strings.Contains(string(b), "vector_refuted") {
			t.Errorf("-par %d: a SAT refutation written as %s", par, b)
		}
	}
}

// TestWriteReport pins the report's shape and its attribution totals.
func TestWriteReport(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	res, err := Optimize(nl, Options{
		Power:     powerOptsSmall(),
		Transform: transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, "comp", res)
	out := sb.String()
	for _, want := range []string{
		"# POWDER run report — comp",
		"## Top moves by realized gain",
		"## Predicted vs realized",
		"## Rejected candidates",
		"## Permissibility proofs",
		"proof latency: p50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n--- report ---\n%s", want, out)
		}
	}
}

// ledgerLines renders a run's ledger, applied and rejected entries merged
// in Seq order, one "circuit seq outcome reason kind target source" line
// per entry.
func ledgerLines(name string, led *obs.LedgerSummary) []string {
	all := append(append([]obs.LedgerAttempt(nil), led.Moves...), led.Rejects...)
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	lines := make([]string, len(all))
	for i, a := range all {
		reason := a.Reason
		if reason == "" {
			reason = "-"
		}
		lines[i] = fmt.Sprintf("%s %d %s %s %s %s %s", name, a.Seq, a.Outcome, reason, a.Kind, a.Target, a.Source)
	}
	return lines
}

// TestLedgerFollowsDecisionOrder pins the one-region ledger to decision
// order: a round's rejects take their Seq between the round's applies,
// exactly as the sequential loop recorded them. testdata/ledger_order.txt
// holds the ledgers of comp and ttt2 as recorded at 98aa9fd, the last
// commit with the sequential loop.
func TestLedgerFollowsDecisionOrder(t *testing.T) {
	want, err := os.ReadFile("testdata/ledger_order.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range []string{"comp", "ttt2"} {
		res, err := Optimize(compileBenchmark(t, name), Options{
			Power:     powerOptsSmall(),
			Transform: transform.Config{AllowInverted: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ledgerLines(name, res.Ledger)...)
	}
	if g, w := strings.Join(got, "\n")+"\n", string(want); g != w {
		t.Errorf("ledger order differs from the sequential loop's:\ngot:\n%swant:\n%s", g, w)
	}
}

// TestLedgerOrderDeterministicAcrossRegions pins that workers proving
// concurrently do not decide the ledger order: two -par 4 runs record
// the same entries in the same order.
func TestLedgerOrderDeterministicAcrossRegions(t *testing.T) {
	var runs [2][]string
	for i := range runs {
		res, err := Optimize(compileBenchmark(t, "clip"), Options{
			Parallelism: 4,
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = ledgerLines("clip", res.Ledger)
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Errorf("two -par 4 runs recorded different ledgers:\n%s\n--\n%s", strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"))
	}
}
