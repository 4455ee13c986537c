package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/synth"
	"powder/internal/transform"
)

func compileBenchmark(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	spec, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func mustEquivalent(t *testing.T, input, nl *netlist.Netlist, label string) {
	t.Helper()
	eq, err := atpg.Equivalent(input, nl, 0)
	if err != nil {
		t.Fatalf("%s: equivalence check: %v", label, err)
	}
	if eq.Verdict != atpg.Permissible {
		t.Fatalf("%s: final netlist not equivalent to input (verdict %v, output %q)",
			label, eq.Verdict, eq.DifferingOutput)
	}
}

// TestCorruptedApplyIsRolledBack pins the transactional-apply contract:
// a corruption smuggled into every applied substitution is caught by the
// post-apply re-validation, rolled back, and the run continues without
// ever committing a broken netlist.
func TestCorruptedApplyIsRolledBack(t *testing.T) {
	nl := redundantCircuit(t)
	ref := nl.Clone()
	capture := &captureSink{}
	res, err := OptimizeCtx(capture.traced(context.Background()), nl, Options{
		Transform: transform.Config{AllowInverted: true},
		Inject:    &faultinject.Hooks{CorruptApply: faultinject.CorruptEveryApply(0, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 {
		t.Errorf("Applied = %d with every apply corrupted, want 0", res.Applied)
	}
	if res.Rejects[RejectRollback] == 0 {
		t.Fatalf("no rollback rejects recorded: %v", res.Rejects)
	}
	rolledBack := 0
	for _, f := range capture.Spans("candidate") {
		if f["attr_outcome"] == RejectRollback && f["attr_error"] != nil {
			rolledBack++
		}
	}
	if rolledBack != res.Rejects[RejectRollback] {
		t.Errorf("%d candidate spans end rolled back with an error, want %d", rolledBack, res.Rejects[RejectRollback])
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid after rollbacks: %v", err)
	}
	if !exhaustiveEqual(t, ref, nl) {
		t.Fatal("rolled-back run changed the circuit function")
	}
}

// TestIntermittentCorruptionOnBenchmarks is the acceptance scenario:
// on two example circuits, intermittently corrupt applied substitutions;
// the corrupted ones must roll back, the clean ones must commit, and the
// final netlist must be proven equivalent to the input.
func TestIntermittentCorruptionOnBenchmarks(t *testing.T) {
	for _, name := range []string{"clip", "t481"} {
		nl := compileBenchmark(t, name)
		input := nl.Clone()
		res, err := Optimize(nl, Options{
			Power:     powerOptsSmall(),
			Transform: transform.Config{AllowInverted: true},
			Inject:    &faultinject.Hooks{CorruptApply: faultinject.CorruptEveryApply(0, 2)},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rejects[RejectRollback] == 0 {
			t.Errorf("%s: corruption never triggered a rollback: %v", name, res.Rejects)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: invalid netlist: %v", name, err)
		}
		mustEquivalent(t, input, nl, name)
	}
}

// TestInjectedPanicRestoresLastGood pins the safety net: a panic in the
// optimization path is recovered, reported as an error with StopPanic,
// and the netlist comes back as the last snapshot proven equivalent to
// the input.
func TestInjectedPanicRestoresLastGood(t *testing.T) {
	for _, name := range []string{"t481", "comp"} {
		nl := compileBenchmark(t, name)
		input := nl.Clone()
		res, err := Optimize(nl, Options{
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
			VerifyEvery: 1, // refresh last-good after every apply
			Inject:      &faultinject.Hooks{Panic: faultinject.PanicAfter(2)},
		})
		if err == nil {
			t.Fatalf("%s: injected panic did not surface as an error", name)
		}
		if res == nil || res.Stopped != StopPanic {
			t.Fatalf("%s: Stopped = %v, want %v (err %v)", name, res.Stopped, StopPanic, err)
		}
		if res.SafetyRefreshes == 0 {
			t.Errorf("%s: safety net never refreshed with VerifyEvery=1", name)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: restored netlist invalid: %v", name, err)
		}
		mustEquivalent(t, input, nl, name)
	}
}

// TestWorkerPanicStopsRun pins the safety net for a panic inside a region
// worker (here a proof hook): it surfaces as an error with StopPanic and
// the netlist comes back equivalent to the input, in one region and
// across several.
func TestWorkerPanicStopsRun(t *testing.T) {
	for _, par := range []int{1, 2} {
		nl := compileBenchmark(t, "comp")
		input := nl.Clone()
		res, err := Optimize(nl, Options{
			Parallelism: par,
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
			Inject: &faultinject.Hooks{ForceAbort: func(check int) bool {
				if check == 3 {
					panic("injected proof panic")
				}
				return false
			}},
		})
		if err == nil {
			t.Fatalf("-par %d: worker panic did not surface as an error", par)
		}
		if res == nil || res.Stopped != StopPanic {
			t.Fatalf("-par %d: Stopped = %v, want %v (err %v)", par, res.Stopped, StopPanic, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("-par %d: restored netlist invalid: %v", par, err)
		}
		mustEquivalent(t, input, nl, "comp")
	}
}

// TestEveryProofAccountedFor pins, in one region, that a run cut short
// by a cancel or by MaxSubstitutions neither drops a proven substitution
// nor proves past the cap: every proof ends as an applied substitution
// or as a rejected attempt that carries its proof record.
func TestEveryProofAccountedFor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cancelAt int // proof on which the hook cancels the run (0 = never)
		maxSubs  int
		want     StopReason
	}{
		{"cancel", 4, 0, StopCancelled},
		{"cap", 0, 3, StopMaxSubs},
	} {
		nl := compileBenchmark(t, "comp")
		input := nl.Clone()
		ctx, cancel := context.WithCancel(context.Background())
		proofs := 0
		res, err := OptimizeCtx(ctx, nl, Options{
			MaxSubstitutions: tc.maxSubs,
			Power:            powerOptsSmall(),
			Transform:        transform.Config{AllowInverted: true},
			Inject: &faultinject.Hooks{ForceAbort: func(check int) bool {
				proofs++
				if proofs == tc.cancelAt {
					cancel()
					return true
				}
				return false
			}},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped != tc.want {
			t.Fatalf("%s: Stopped = %v, want %v", tc.name, res.Stopped, tc.want)
		}
		if res.Applied == 0 || (tc.maxSubs > 0 && res.Applied != tc.maxSubs) {
			t.Errorf("%s: Applied = %d", tc.name, res.Applied)
		}
		rejected := 0
		for _, a := range res.Ledger.Rejects {
			if a.Proof != nil {
				rejected++
			}
		}
		if proofs != res.Applied+rejected {
			t.Errorf("%s: %d proofs, but %d applied + %d rejected with a proof", tc.name, proofs, res.Applied, rejected)
		}
		mustEquivalent(t, input, nl, "comp")
	}
}

// TestForcedAbortsEscalate pins the adaptive proof budgets: verdicts
// forced to Aborted are retried with escalated budgets under the
// MaxRetries quota, recover to real verdicts, and the stats and the
// escalate events record it — in one region and across several.
func TestForcedAbortsEscalate(t *testing.T) {
	for _, par := range []int{1, 2} {
		nl := redundantCircuit(t)
		ref := nl.Clone()
		capture := &captureSink{}
		res, err := OptimizeCtx(capture.traced(context.Background()), nl, Options{
			Parallelism: par,
			MaxRetries:  8,
			Transform:   transform.Config{AllowInverted: true},
			Inject:      &faultinject.Hooks{ForceAbort: faultinject.AbortFirstN(2)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Escalation.Retries == 0 {
			t.Fatalf("-par %d: forced aborts never escalated: %+v", par, res.Escalation)
		}
		if res.Escalation.Permissible+res.Escalation.Refuted == 0 {
			t.Errorf("-par %d: escalation never reached a real verdict: %+v", par, res.Escalation)
		}
		escalations := capture.Spans("escalate")
		if len(escalations) != res.Escalation.Retries {
			t.Errorf("-par %d: %d escalate spans, want one per retry (%d)", par, len(escalations), res.Escalation.Retries)
		}
		for _, f := range escalations {
			if f["attr_retries_left"] == nil {
				t.Errorf("-par %d: escalate span without retries_left: %v", par, f)
			}
		}
		if res.Applied == 0 {
			t.Errorf("-par %d: escalated run applied nothing", par)
		}
		if !exhaustiveEqual(t, ref, nl) {
			t.Fatalf("-par %d: escalated run changed the circuit function", par)
		}
	}
}

// TestRetryQuotaIsPerRun pins MaxRetries as one quota for the whole run
// at every -par: the regions of a round share it, and a round cannot
// refill it. Every other proof is forced to abort, so the run would
// spend far more retries than the quota if it could.
func TestRetryQuotaIsPerRun(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		nl := compileBenchmark(t, "ttt2")
		res, err := Optimize(nl, Options{
			Parallelism: par,
			MaxRetries:  3,
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
			Inject:      &faultinject.Hooks{ForceAbort: func(check int) bool { return check%2 == 1 }},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Escalation.Retries == 0 || res.Escalation.Retries > 3 {
			t.Errorf("-par %d: %d retries, want 1..3 under MaxRetries 3 (%+v)", par, res.Escalation.Retries, res.Escalation)
		}
		if res.Rejects[RejectAborted] == 0 {
			t.Errorf("-par %d: no aborts rejected once the quota ran out: %v", par, res.Rejects)
		}
	}
}

// TestActivityStampedOnLedger pins the ledger's activity label on every
// path: a completed run and a recovered panic, in one region and across
// several.
func TestActivityStampedOnLedger(t *testing.T) {
	const activity = "vcd:test sha256:0"
	for _, par := range []int{1, 2} {
		for _, panicking := range []bool{false, true} {
			opts := Options{
				Parallelism: par,
				Activity:    activity,
				Power:       powerOptsSmall(),
				Transform:   transform.Config{AllowInverted: true},
			}
			if panicking {
				opts.Inject = &faultinject.Hooks{Panic: faultinject.PanicAfter(1)}
			}
			res, err := Optimize(compileBenchmark(t, "comp"), opts)
			if (err != nil) != panicking {
				t.Fatalf("-par %d panic=%v: err %v", par, panicking, err)
			}
			if res.Ledger == nil || res.Ledger.Activity != activity {
				t.Errorf("-par %d panic=%v: ledger %+v, want activity %q", par, panicking, res.Ledger, activity)
			}
		}
	}
}

// TestNoRetriesMeansAbortsReject pins the quota-off behavior: with
// MaxRetries 0 a forced abort is rejected outright, as in the paper.
func TestNoRetriesMeansAbortsReject(t *testing.T) {
	nl := redundantCircuit(t)
	res, err := Optimize(nl, Options{
		Transform: transform.Config{AllowInverted: true},
		Inject:    &faultinject.Hooks{ForceAbort: faultinject.AbortFirstN(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalation.Retries != 0 {
		t.Errorf("escalation ran with MaxRetries = 0: %+v", res.Escalation)
	}
	if res.Rejects[RejectAborted] == 0 {
		t.Errorf("forced abort was not rejected: %v", res.Rejects)
	}
}

// TestDeadlineStopsRunCleanly pins the Timeout contract at the engine
// level: the run ends well within 2x the deadline, reports StopDeadline,
// and hands back a valid netlist equivalent to the input.
func TestDeadlineStopsRunCleanly(t *testing.T) {
	for _, par := range []int{1, 2} {
		// apex1 runs for about a second, far past the deadline.
		nl := compileBenchmark(t, "apex1")
		input := nl.Clone()
		const deadline = 50 * time.Millisecond
		start := time.Now()
		res, err := Optimize(nl, Options{
			Parallelism: par,
			Power:       powerOptsSmall(),
			Timeout:     deadline,
			Transform:   transform.Config{AllowInverted: true},
		})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped != StopDeadline {
			t.Fatalf("-par %d: Stopped = %v, want %v (elapsed %v, applied %d)", par, res.Stopped, StopDeadline, elapsed, res.Applied)
		}
		if !res.StoppedEarly() {
			t.Errorf("-par %d: StoppedEarly() = false on a deadline stop", par)
		}
		// Generous slack over the 2x-deadline acceptance bound: the run may
		// finish one in-flight phase, but must not run to completion.
		if elapsed > 5*time.Second {
			t.Errorf("-par %d: run took %v against a %v deadline", par, elapsed, deadline)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("-par %d: netlist invalid after deadline stop: %v", par, err)
		}
		mustEquivalent(t, input, nl, "apex1")
	}
}

// TestCancelDuringProofReportsCancelled pins the stop reason of a cancel
// that lands while the region workers prove: the proof in flight aborts,
// no later proof runs, and the run must report StopCancelled — not
// StopCompleted, which would let a caching layer keep the truncated
// result.
func TestCancelDuringProofReportsCancelled(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		nl := compileBenchmark(t, "comp")
		input := nl.Clone()
		ctx, cancel := context.WithCancel(context.Background())
		res, err := OptimizeCtx(ctx, nl, Options{
			Parallelism: par,
			Transform:   transform.Config{AllowInverted: true},
			Inject: &faultinject.Hooks{ForceAbort: func(int) bool {
				cancel()
				return true
			}},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped != StopCancelled || !res.StoppedEarly() {
			t.Errorf("-par %d: Stopped = %v, want %v", par, res.Stopped, StopCancelled)
		}
		mustEquivalent(t, input, nl, "comp")
	}
}

// TestCancelledContextStopsRun pins the Ctrl-C path: an
// already-cancelled context yields StopCancelled with zero applies and
// an untouched netlist.
func TestCancelledContextStopsRun(t *testing.T) {
	nl := redundantCircuit(t)
	ref := nl.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeCtx(ctx, nl, Options{Transform: transform.Config{AllowInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, StopCancelled)
	}
	if res.Applied != 0 {
		t.Errorf("Applied = %d under a pre-cancelled context", res.Applied)
	}
	if !exhaustiveEqual(t, ref, nl) {
		t.Fatal("cancelled run changed the circuit")
	}
}

// TestPeriodicVerificationRefreshes pins that clean runs advance the
// last-good snapshot and count the refreshes.
func TestPeriodicVerificationRefreshes(t *testing.T) {
	nl := redundantCircuit(t)
	res, err := Optimize(nl, Options{
		VerifyEvery: 1,
		Transform:   transform.Config{AllowInverted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied == 0 {
		t.Fatal("run applied nothing; refresh path untested")
	}
	if res.SafetyRefreshes == 0 {
		t.Errorf("SafetyRefreshes = 0 with VerifyEvery = 1 and %d applies", res.Applied)
	}
}

// TestRandomCircuitsUnderInjection sweeps random circuits with mixed
// fault injection, checking the engine never emits a non-equivalent or
// invalid netlist no matter what is thrown at it.
func TestRandomCircuitsUnderInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 5; trial++ {
		nl := randomNetlist(t, rng, 6, 18)
		ref := nl.Clone()
		_, err := Optimize(nl, Options{
			MaxRetries:  4,
			VerifyEvery: 2,
			Transform:   transform.Config{AllowInverted: true},
			Inject: &faultinject.Hooks{
				CorruptApply: faultinject.CorruptEveryApply(0, 3),
				ForceAbort:   faultinject.AbortFirstN(1),
			},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("trial %d: invalid netlist: %v", trial, err)
		}
		if !exhaustiveEqual(t, ref, nl) {
			t.Fatalf("trial %d: function changed under injection", trial)
		}
	}
}

// powerOptsSmall keeps benchmark-circuit runs fast in tests.
func powerOptsSmall() power.Options {
	return power.Options{Words: 16, Seed: 1}
}
