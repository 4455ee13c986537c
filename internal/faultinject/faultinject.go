// Package faultinject is a hook-based fault-injection harness for the
// POWDER optimization engine. It exists to prove — in ordinary tests,
// with no build tags — that the robustness machinery around
// core.Optimize actually fires: transactional rollback on a corrupted
// apply, budget escalation on forced checker aborts, and the last-good
// snapshot restore on an injected panic.
//
// The hooks are plain optional callbacks carried on core.Options; a nil
// Hooks (the production configuration) costs nothing. The package
// deliberately depends only on the netlist layer so every higher layer
// can consume it without cycles.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"

	"powder/internal/netlist"
)

// Hooks are the injection points the optimization engine consults. Any
// field may be nil; a nil hook never fires. CorruptApply and Panic run on
// the goroutine that commits substitutions, but ForceAbort also runs on
// the region workers, concurrently when a run has several regions, so it
// must be safe for concurrent use. Hooks that keep state across calls
// (the constructors below) use atomics.
type Hooks struct {
	// CorruptApply, when non-nil, runs right after a substitution has
	// been applied, while the edit transaction is still open. It may
	// mutate the netlist through the editing primitives to emulate a
	// buggy transform; a non-nil error (or any detectable damage) must
	// make the engine roll the transaction back. The applied argument
	// counts previously committed substitutions.
	CorruptApply func(nl *netlist.Netlist, applied int) error

	// ForceAbort, when non-nil, is consulted after every permissibility
	// check; returning true overrides the verdict to Aborted (as if the
	// proof budget had run out), exercising the reject and budget-
	// escalation paths. check is the running proof count of the calling
	// prover — one region worker's round, or the commit phase's re-proofs
	// — starting at 1.
	ForceAbort func(check int) bool

	// Panic, when non-nil, is consulted at the top of every apply
	// iteration; returning true makes the engine panic at a point
	// outside per-substitution containment, exercising the run-level
	// recover that restores the last verified snapshot.
	Panic func(applied int) bool
}

// InvertOutput corrupts the netlist by routing primary output po
// through a freshly inserted inverter — a guaranteed functional change
// on every input vector, so any signature- or proof-based re-validation
// must detect it. The corruption uses only journaled editing
// primitives, so an enclosing transaction can roll it back exactly.
func InvertOutput(nl *netlist.Netlist, po int) error {
	if po < 0 || po >= len(nl.Outputs()) {
		return fmt.Errorf("faultinject: no primary output %d", po)
	}
	inv := nl.Lib.Inverter()
	if inv == nil {
		return fmt.Errorf("faultinject: library has no inverter")
	}
	g, err := nl.AddGate("", inv, []netlist.NodeID{nl.Outputs()[po].Driver})
	if err != nil {
		return err
	}
	return nl.RedirectOutput(po, g)
}

// CorruptEveryApply returns a CorruptApply hook that inverts primary
// output po after every nth committed substitution (n <= 1 corrupts on
// every apply). The returned hook reports nil: the damage is meant to
// be caught by the engine's own re-validation, not self-reported.
func CorruptEveryApply(po, n int) func(*netlist.Netlist, int) error {
	if n < 1 {
		n = 1
	}
	return func(nl *netlist.Netlist, applied int) error {
		if applied%n != 0 {
			return nil
		}
		return InvertOutput(nl, po)
	}
}

// AbortFirstN returns a ForceAbort hook that overrides the first n
// verdicts to Aborted and then lets the checker decide normally.
func AbortFirstN(n int) func(int) bool {
	var fired atomic.Int64
	return func(int) bool {
		return fired.Add(1) <= int64(n)
	}
}

// PanicAfter returns a Panic hook that fires once, as soon as at least
// n substitutions have been committed.
func PanicAfter(n int) func(int) bool {
	var fired atomic.Bool
	return func(applied int) bool {
		if applied >= n && fired.CompareAndSwap(false, true) {
			return true
		}
		return false
	}
}

// ErrNoSpace is the injected write failure returned by FailWritesAfter:
// the moral equivalent of ENOSPC, without tying tests to a platform
// errno. The durability layer must react to it exactly as it would to
// the real thing — degrade to in-memory mode, never crash.
var ErrNoSpace = errors.New("faultinject: injected ENOSPC")

// FailWritesAfter returns a store.Hooks.AppendErr hook: the first n
// appends succeed, every later one fails with ErrNoSpace. Pass n = 0 to
// fail from the first append (a full disk at startup).
func FailWritesAfter(n int) func(string) error {
	var calls atomic.Int64
	return func(string) error {
		if calls.Add(1) > int64(n) {
			return ErrNoSpace
		}
		return nil
	}
}

// ShortWriteOnNth returns a store.Hooks.ShortWrite hook: append number n
// (1-based) is torn after keep bytes — the on-disk state a crash in the
// middle of a journal write leaves behind — while every other append
// goes through untouched.
func ShortWriteOnNth(n, keep int) func(string) int {
	var calls atomic.Int64
	return func(string) int {
		if calls.Add(1) == int64(n) {
			return keep
		}
		return -1
	}
}
