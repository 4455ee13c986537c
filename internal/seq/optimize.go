package seq

import (
	"context"
	"errors"
	"fmt"
	"io"

	"powder/internal/blif"
	"powder/internal/core"
	"powder/internal/obs"
)

// Options configures a sequential optimization run.
type Options struct {
	// Core configures the combinational engine run on the core.
	// Core.Power.InputProbs is overwritten with the converged steady-state
	// vector (true-input probabilities followed by state-line
	// probabilities).
	Core core.Options
	// Fixpoint configures the steady-state probability iteration.
	// Fixpoint.InputProbs carries the per-primary-input probabilities
	// (e.g. from a -probs file).
	Fixpoint FixpointOptions
	// Activity, when non-nil, folds a measured workload activity binding
	// into the run: matched true-input probabilities seed the fixpoint,
	// matched state-line probabilities override the converged values
	// (the dump observed the real state distribution — trust it over the
	// model), and the toggle densities pin E(i) across the register cut.
	Activity *ActivityOverride
}

// ActivityOverride carries a workload activity binding over the core
// inputs — true primary inputs followed by state lines, in
// Core().Inputs() order (the order activity.Profile.Bind produces when
// given the core input names).
type ActivityOverride struct {
	// Probs is the per-core-input signal probability.
	Probs []float64
	// Toggles is the per-core-input transition density (NaN = unpinned),
	// passed through to power.Options.InputToggles.
	Toggles []float64
	// Matched flags which entries were actually observed in the dump;
	// unmatched entries defer to the fixpoint / uniform defaults.
	Matched []bool
}

// apply folds the override into the run options before the fixpoint
// (seeding matched true-input probabilities) and returns the function
// that rewrites the converged core vector afterwards.
func (a *ActivityOverride) apply(c *Circuit, opts *Options) (func(core []float64) []float64, error) {
	nIn := c.Model.NumInputs
	nCore := nIn + len(c.Model.Latches)
	if len(a.Probs) != nCore || len(a.Toggles) != nCore || len(a.Matched) != nCore {
		return nil, fmt.Errorf("seq: activity override covers %d/%d/%d entries for %d core inputs",
			len(a.Probs), len(a.Toggles), len(a.Matched), nCore)
	}
	// Clone before seeding — the caller's -probs vector must not mutate.
	seed := make([]float64, nIn)
	for j := range seed {
		seed[j] = 0.5
	}
	copy(seed, opts.Fixpoint.InputProbs)
	for i := 0; i < nIn; i++ {
		if a.Matched[i] {
			seed[i] = a.Probs[i]
		}
	}
	opts.Fixpoint.InputProbs = seed
	opts.Core.Power.InputToggles = a.Toggles
	return func(core []float64) []float64 {
		for i := nIn; i < nCore; i++ {
			if a.Matched[i] {
				core[i] = a.Probs[i]
			}
		}
		return core
	}, nil
}

// Result bundles the fixpoint that seeded the run with the core
// engine's result.
type Result struct {
	// Fixpoint is the converged steady state used for power estimation.
	Fixpoint *FixpointResult
	// Core is the combinational engine's result on the register-cut core;
	// its power numbers are under the converged state probabilities.
	Core *core.Result
}

// Optimize runs the POWDER engine on a sequential circuit. See
// OptimizeCtx.
func Optimize(c *Circuit, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), c, opts)
}

// OptimizeCtx computes the steady-state signal probabilities of the
// state lines, seeds the power model with them, and optimizes the
// combinational core in place. Permissibility is judged at the register
// cut: latch inputs are primary outputs of the core, so the engine's ATPG
// proofs guarantee the next-state and output functions — and therefore
// the state transition structure — are preserved, with no sequential
// reasoning needed. The caller's Circuit still holds the cut afterwards;
// write it with blif.WriteModel to stitch the latches back.
func OptimizeCtx(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	var override func([]float64) []float64
	if opts.Activity != nil {
		var err error
		override, err = opts.Activity.apply(c, &opts)
		if err != nil {
			return nil, err
		}
	}
	fp, err := SteadyStateCtx(ctx, c, opts.Fixpoint)
	if err != nil {
		return nil, err
	}
	// Even an all-0.5 vector is passed explicitly: it forces the power
	// model onto biased random vectors, keeping estimates comparable
	// across circuits of the same family regardless of input count.
	coreProbs := fp.CoreInputProbs()
	if override != nil {
		coreProbs = override(coreProbs)
	}
	opts.Core.Power.InputProbs = coreProbs
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
// seq.fixpoint.diverged; a converged one over at least one latch counts
// seq.fixpoint.converged and observes its iteration count in
// seq.fixpoint.iterations. A nil registry records nothing.
func RecordMetrics(reg *obs.Registry, res *Result, err error) {
	if errors.Is(err, ErrDiverged) {
		reg.Counter("seq.fixpoint.diverged").Inc()
	}
	if res == nil {
		return
	}
	if fp := res.Fixpoint; len(fp.StateProbs) > 0 {
		reg.Counter("seq.fixpoint.converged").Inc()
		reg.Histogram("seq.fixpoint.iterations").Observe(float64(fp.Iterations))
	}
	core.RecordMetrics(reg, res.Core)
}

// WriteBLIF writes the optimized sequential circuit; it exists so callers
// need not import blif alongside seq.
func (c *Circuit) WriteBLIF(w io.Writer) error {
	return blif.WriteModel(w, c.Model)
}
