package seq

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"powder/internal/activity"
	"powder/internal/core"
	"powder/internal/obs"
)

// Options configures an optimization run.
type Options struct {
	// Core configures the combinational engine run on the core. With
	// latches, Core.Power.InputProbs is overwritten with the converged
	// steady-state vector (true-input probabilities followed by
	// state-line probabilities).
	Core core.Options
	// Fixpoint configures the steady-state probability iteration.
	// Fixpoint.InputProbs carries the per-primary-input probabilities
	// (e.g. from a -probs file); a latch-free circuit runs under them
	// directly.
	Fixpoint FixpointOptions
	// Activity, when non-nil, is a workload binding over the core inputs
	// (see BindActivity) and replaces Fixpoint.InputProbs: its
	// probabilities drive the power model and its toggle densities pin
	// E(i). With latches, the true-input probabilities seed the fixpoint
	// and matched state-line probabilities override the converged
	// values: the dump observed the real state distribution, so it is
	// trusted over the model.
	Activity *activity.Binding
}

// BindActivity binds a workload activity profile onto the core inputs
// (true primary inputs followed by state lines, the layout
// Options.Activity expects) and returns the binding with its ledger
// label (activity.Binding.Label). source names the dump in errors, and
// its last path element names it in the label: a file path labels the
// ledger by file name, a format name ("vcd") by itself. A dump that
// matches none of the inputs is an error: a dump from the wrong design
// must fail loudly, not silently run the uniform assumption it was
// supposed to replace.
func (c *Circuit) BindActivity(prof *activity.Profile, source string) (*activity.Binding, string, error) {
	nl := c.Core()
	names := make([]string, len(nl.Inputs()))
	for i, id := range nl.Inputs() {
		names[i] = nl.Node(id).Name()
	}
	b, err := prof.Bind(names)
	if err != nil {
		return nil, "", err
	}
	if b.MatchedCount == 0 {
		return nil, "", fmt.Errorf("activity: %s matched none of the circuit's %d inputs (profile signals: %d)",
			source, len(b.Names), len(prof.Signals))
	}
	return b, b.Label(filepath.Base(source), prof), nil
}

// Result bundles the fixpoint that seeded the run with the core
// engine's result.
type Result struct {
	// Fixpoint is the converged steady state used for power estimation;
	// nil for a latch-free circuit, which has no state to iterate.
	Fixpoint *FixpointResult
	// Core is the combinational engine's result on the register-cut core;
	// with latches, its power numbers are under the converged state
	// probabilities.
	Core *core.Result
}

// Optimize runs the POWDER engine on a circuit. See OptimizeCtx.
func Optimize(c *Circuit, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), c, opts)
}

// OptimizeCtx optimizes the circuit's combinational core in place; it is
// the one engine entry for circuits with and without latches.
//
// A latch-free circuit runs core.OptimizeCtx on the caller's workload as
// given and gets a nil Result.Fixpoint. Without Fixpoint.InputProbs or
// Activity its probabilities stay nil, so the power model keeps its
// uniform default (exhaustive simulation on a small circuit).
//
// With latches, OptimizeCtx first computes the steady-state signal
// probabilities of the state lines and seeds the power model with them.
// Permissibility is judged at the register cut: latch inputs are primary
// outputs of the core, so the engine's ATPG proofs guarantee the
// next-state and output functions — and therefore the state transition
// structure — are preserved, with no sequential reasoning needed. The
// caller's Circuit still holds the cut afterwards; write it with
// blif.WriteModel to stitch the latches back.
func OptimizeCtx(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	nIn, pw := c.Model.NumInputs, &opts.Core.Power
	if b := opts.Activity; b != nil {
		if n := len(c.Core().Inputs()); len(b.Probs) != n {
			return nil, fmt.Errorf("seq: activity binding covers %d entries for %d core inputs", len(b.Probs), n)
		}
		opts.Fixpoint.InputProbs = b.Probs[:nIn]
		pw.InputToggles = b.Toggles
	}
	var fp *FixpointResult
	if c.NumLatches() == 0 {
		if opts.Fixpoint.InputProbs != nil {
			pw.InputProbs = opts.Fixpoint.InputProbs
		}
	} else {
		var err error
		if fp, err = SteadyStateCtx(ctx, c, opts.Fixpoint); err != nil {
			return nil, err
		}
		// Even an all-0.5 vector is passed explicitly: it forces the power
		// model onto biased random vectors, keeping estimates comparable
		// across circuits of the same family regardless of input count.
		pw.InputProbs = fp.CoreInputProbs()
		if b := opts.Activity; b != nil {
			for i := nIn; i < len(b.Probs); i++ {
				if b.Matched[i] {
					pw.InputProbs[i] = b.Probs[i]
				}
			}
		}
	}
	res, err := core.OptimizeCtx(ctx, c.Core(), opts.Core)
	if res == nil {
		return nil, err
	}
	// A failed engine run may still carry a partial result (ledger,
	// progress so far); pass it through alongside the error.
	return &Result{Fixpoint: fp, Core: res}, err
}

// RecordMetrics folds one OptimizeCtx call into reg: the fixpoint
// outcome, then the core run through core.RecordMetrics. res and err are
// the call's returns. A fixpoint that failed with ErrDiverged counts
// seq.fixpoint.diverged; a converged one counts seq.fixpoint.converged
// and observes its iteration count in seq.fixpoint.iterations. A
// latch-free run has no fixpoint and folds only its core result. A nil
// registry records nothing.
func RecordMetrics(reg *obs.Registry, res *Result, err error) {
	if errors.Is(err, ErrDiverged) {
		reg.Counter("seq.fixpoint.diverged").Inc()
	}
	if res == nil {
		return
	}
	if fp := res.Fixpoint; fp != nil {
		reg.Counter("seq.fixpoint.converged").Inc()
		reg.Histogram("seq.fixpoint.iterations").Observe(float64(fp.Iterations))
	}
	core.RecordMetrics(reg, res.Core)
}
