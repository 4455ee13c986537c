// Package seq is the front end of the POWDER engine for every circuit a
// user submits. A design is modeled as its combinational core cut at the
// register boundaries (blif.Model): latch outputs are pseudo primary
// inputs, latch inputs pseudo primary outputs. The package adds what the
// combinational pipeline cannot know — the signal probabilities of the
// state lines, obtained as the steady state of the core's
// input→next-state probability map — and the two decisions powder and
// powderd share: OptimizeCtx picks the engine entry by latch count (a
// latch-free circuit runs core.OptimizeCtx under its workload as given,
// a sequential one under the converged probabilities, with the registers
// stitched back on write), and BindActivity binds a workload activity
// dump onto the core inputs and labels it for the run ledger.
//
// The steady-state computation is a damped Picard iteration over exact
// zero-delay probability propagation: each gate's output probability is
// the on-set weight of its truth table under independent pin
// probabilities. The map is smooth, so convergence to tight tolerances
// (1e-6) is meaningful — unlike bit-parallel sampling, which is quantized
// to 1/nvec. Oscillating state feedback (e.g. cross-coupled inversions)
// makes the undamped map periodic; damping averages the orbit into the
// fixpoint. Hitting the iteration cap is reported as an explicit
// ErrDiverged, never a hang.
package seq

import (
	"context"
	"errors"
	"fmt"
	"math"

	"powder/internal/blif"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
)

// Circuit is a sequential circuit: a validated register-boundary cut.
type Circuit struct {
	// Model is the underlying cut (combinational core + latches).
	Model *blif.Model
}

// FromModel wraps a parsed model after checking the cut invariants. The
// model may be combinational (no latches); SteadyState then degenerates
// to a single propagation pass.
func FromModel(m *blif.Model) (*Circuit, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("seq: %v", err)
	}
	return &Circuit{Model: m}, nil
}

// Core returns the combinational core netlist.
func (c *Circuit) Core() *netlist.Netlist { return c.Model.Netlist }

// NumLatches returns the register count.
func (c *Circuit) NumLatches() int { return len(c.Model.Latches) }

// ErrDiverged is wrapped by SteadyState when the iteration cap is hit
// before the residual reaches the tolerance.
var ErrDiverged = errors.New("seq: probability fixpoint diverged")

// FixpointOptions configures SteadyState. The zero value asks for the
// defaults; negative Damping disables damping.
type FixpointOptions struct {
	// Tol is the convergence tolerance on the max-norm state-probability
	// residual (0 = 1e-6).
	Tol float64
	// MaxIter caps the iteration count; hitting it is ErrDiverged
	// (0 = 1000).
	MaxIter int
	// Damping is the retained fraction of the previous iterate:
	// p' = (1-d)·f(p) + d·p. 0 = default 0.5; negative = undamped.
	Damping float64
	// InputProbs optionally gives the signal probability of each true
	// primary input, in Core().Inputs()[:NumInputs] order (nil = all 0.5).
	InputProbs []float64
}

func (o *FixpointOptions) normalize(c *Circuit) error {
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.Tol < 0 {
		return fmt.Errorf("seq: negative fixpoint tolerance %g", o.Tol)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	if o.Damping == 0 {
		o.Damping = 0.5
	}
	if o.Damping < 0 {
		o.Damping = 0
	}
	if o.Damping >= 1 {
		return fmt.Errorf("seq: damping %g would freeze the iteration (want < 1)", o.Damping)
	}
	if o.InputProbs != nil && len(o.InputProbs) != c.Model.NumInputs {
		return fmt.Errorf("seq: got %d input probabilities, circuit has %d true primary inputs",
			len(o.InputProbs), c.Model.NumInputs)
	}
	for i, p := range o.InputProbs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("seq: input probability %d = %g outside [0,1]", i, p)
		}
	}
	return nil
}

// FixpointResult reports a converged steady state.
type FixpointResult struct {
	// Iterations is the number of Picard steps taken (1 for a
	// combinational circuit).
	Iterations int
	// Residual is the final max-norm change of the state probabilities.
	Residual float64
	// StateProbs holds the converged signal probability of each state
	// line, in latch order.
	StateProbs []float64
	// InputProbs echoes the true-primary-input probabilities used.
	InputProbs []float64
}

// CoreInputProbs returns the probability vector over ALL core inputs —
// true primary inputs followed by state lines — the layout
// power.Options.InputProbs and sim.SetInputsRandom expect.
func (r *FixpointResult) CoreInputProbs() []float64 {
	out := make([]float64, 0, len(r.InputProbs)+len(r.StateProbs))
	out = append(out, r.InputProbs...)
	return append(out, r.StateProbs...)
}

// SteadyState iterates the core's input→next-state probability map to a
// fixpoint and returns the converged state-line probabilities. It is
// SteadyStateCtx under a background context.
func SteadyState(c *Circuit, opts FixpointOptions) (*FixpointResult, error) {
	return SteadyStateCtx(context.Background(), c, opts)
}

// SteadyStateCtx iterates the core's input→next-state probability map to
// a fixpoint and returns the converged state-line probabilities. State
// probabilities start from the declared latch init values (0→0, 1→1,
// don't-care/unknown→0.5). Divergence (iteration cap) returns the last
// iterate wrapped in ErrDiverged so callers can still inspect it.
//
// The iteration is observable: a "fixpoint" span nests under any tracer
// on ctx, with one "fixpoint-iter" child span per Picard step carrying
// its residual — the convergence trajectory, not just the converged
// point.
func SteadyStateCtx(ctx context.Context, c *Circuit, opts FixpointOptions) (*FixpointResult, error) {
	if err := opts.normalize(c); err != nil {
		return nil, err
	}
	m := c.Model
	inProbs := opts.InputProbs
	if inProbs == nil {
		inProbs = make([]float64, m.NumInputs)
		for i := range inProbs {
			inProbs[i] = 0.5
		}
	}

	state := make([]float64, len(m.Latches))
	for i, l := range m.Latches {
		switch l.Init {
		case 0:
			state[i] = 0
		case 1:
			state[i] = 1
		default: // don't care / unknown
			state[i] = 0.5
		}
	}

	prop := newPropagator(m.Netlist)
	res := &FixpointResult{StateProbs: state, InputProbs: inProbs}
	if len(m.Latches) == 0 {
		// Combinational: one pass, no feedback to iterate.
		res.Iterations = 1
		return res, nil
	}

	fctx, fpSpan := trace.StartSpan(ctx, "fixpoint")
	fpSpan.SetAttr("circuit", m.Netlist.Name)
	fpSpan.SetAttr("latches", len(m.Latches))
	fpSpan.SetAttr("damping", opts.Damping)
	fpSpan.SetAttr("max_iter", opts.MaxIter)
	fpSpan.SetAttr("tol", opts.Tol)
	endFixpoint := func(outcome string) {
		fpSpan.SetAttr("outcome", outcome)
		fpSpan.SetAttr("iterations", res.Iterations)
		fpSpan.SetAttr("residual", res.Residual)
		fpSpan.End()
	}

	next := make([]float64, len(state))
	for iter := 1; iter <= opts.MaxIter; iter++ {
		_, iterSpan := trace.StartSpan(fctx, "fixpoint-iter")
		prop.run(inProbs, state)
		residual := 0.0
		for i := range state {
			f := prop.prob(m.NextStatePO(i).Driver)
			n := (1-opts.Damping)*f + opts.Damping*state[i]
			if d := math.Abs(n - state[i]); d > residual {
				residual = d
			}
			next[i] = n
		}
		state, next = next, state
		res.StateProbs = state
		res.Iterations = iter
		res.Residual = residual
		iterSpan.SetAttr("iteration", iter)
		iterSpan.SetAttr("residual", residual)
		iterSpan.End()
		if residual <= opts.Tol {
			endFixpoint("converged")
			return res, nil
		}
	}
	endFixpoint("diverged")
	return res, fmt.Errorf("%w: residual %.3g after %d iterations (tol %.3g); try damping or a larger cap",
		ErrDiverged, res.Residual, opts.MaxIter, opts.Tol)
}

// propagator computes exact zero-delay signal probabilities over the core
// under an independence assumption: a gate's output probability is its
// truth table's on-set weight with each minterm weighted by the product
// of its pin probabilities.
type propagator struct {
	nl    *netlist.Netlist
	order []netlist.NodeID
	p     []float64 // per-node signal probability, indexed by NodeID
}

func newPropagator(nl *netlist.Netlist) *propagator {
	return &propagator{nl: nl, order: nl.TopoOrder(), p: make([]float64, nl.NumNodes())}
}

// run fills the per-node probabilities for the given true-input and
// state-line probabilities (concatenated in core input order).
func (pr *propagator) run(inProbs, stateProbs []float64) {
	inputs := pr.nl.Inputs()
	for i, id := range inputs {
		if i < len(inProbs) {
			pr.p[id] = inProbs[i]
		} else {
			pr.p[id] = stateProbs[i-len(inProbs)]
		}
	}
	for _, id := range pr.order {
		n := pr.nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		tt := n.Cell().TT
		fanins := n.Fanins()
		out := 0.0
		for minterm := uint(0); minterm < 1<<uint(len(fanins)); minterm++ {
			if !tt.Eval(minterm) {
				continue
			}
			w := 1.0
			for pin, f := range fanins {
				if minterm&(1<<uint(pin)) != 0 {
					w *= pr.p[f]
				} else {
					w *= 1 - pr.p[f]
				}
			}
			out += w
		}
		pr.p[id] = out
	}
}

// prob returns the last computed probability of a node.
func (pr *propagator) prob(id netlist.NodeID) float64 { return pr.p[id] }
