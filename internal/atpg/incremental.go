package atpg

import (
	"context"
	"fmt"
	"time"

	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/sat"
)

// IncrementalChecker proves or refutes candidate substitutions against
// one frozen netlist snapshot on a long-lived incremental solver. Each
// proof builds the substitution miter — the unchanged circuit shared, the
// transitive fanout of every rewired pin duplicated with the rewired pins
// reading the source — and asks whether any primary output can differ;
// UNSAT proves permissibility, and a budget overrun is the paper's "ATPG
// aborted". The base cone is encoded once and shared by every miter; each
// proof adds only its candidate-specific clauses (source, duplicated
// region, XOR taps) in a retirable activation-literal scope, and learned
// clauses that do not depend on a retired scope keep pruning later
// proofs. Retired scopes stay in the solver as satisfied clauses, so once
// their variables outnumber the live base-cone encoding the checker
// starts over on a fresh solver; its memory stays proportional to the
// circuit however many proofs it runs. The checker keeps the input vector
// of each SAT refutation in Vectors and, before it builds a miter,
// simulates the stored vectors on the netlist: a candidate one of them
// already tells apart is refuted without a miter or a solve, as SAT
// sweeping re-simulates its counterexamples (Mishchenko, Chatterjee,
// Brayton and Eén, ICCAD 2006).
//
// The wrapped netlist must not change while the checker is in use — the
// permanent clauses mirror the snapshot taken at construction, and every
// check panics if the netlist version has moved. Checkers are not safe
// for concurrent use.
type IncrementalChecker struct {
	nl      *netlist.Netlist
	version int64
	inc     *sat.Incremental
	b       *cnfBuilder

	// Budget is the conflict budget per check; exceeded means Aborted.
	Budget int64
	// Stats counts the checker's proofs; each proof's detail is on its
	// "atpg-check" span.
	Stats CheckStats
	// Ctx, when non-nil, is polled inside the SAT search; a cancelled
	// context makes the in-flight proof return Aborted promptly.
	Ctx context.Context
	// Vectors lists primary-input assignments (in Inputs() order) that
	// refuted earlier proofs; the checker appends the counterexample of
	// each of its SAT refutations. A vector depends only on the inputs,
	// so a list gathered on another version of the netlist, or on a
	// clone, serves as well. Callers may seed or extend the list between
	// checks but must not change the vectors already in it.
	Vectors [][]bool
	// LastCheck holds the detail of the most recent proof (each check
	// overwrites it).
	LastCheck CheckDetail

	vs  vectorSim
	cex []bool
}

// NewIncrementalChecker returns an incremental checker over nl with the
// default proof budget.
func NewIncrementalChecker(nl *netlist.Netlist) *IncrementalChecker {
	c := &IncrementalChecker{nl: nl, version: nl.Version(), Budget: 50000}
	c.reset()
	return c
}

// reset starts over on a fresh solver with nothing encoded.
func (c *IncrementalChecker) reset() {
	c.inc = sat.NewIncremental()
	c.b = newCNFBuilder(c.nl, c.inc.Base())
}

// Counterexample returns the primary-input assignment (in Inputs() order)
// that refuted the last NotPermissible check: the SAT model, or the
// stored vector that refuted it without a solve. It is nil after any
// other verdict and after a structural refutation (a source inside the
// rewired fanout).
func (c *IncrementalChecker) Counterexample() []bool { return c.cex }

// CheckStem decides whether substituting every fanout of stem a with the
// source is permissible. It additionally returns the proof's support set:
// the nodes the verdict depends on (nil for refutations). The optimizer
// intersects it with nodes touched by other regions' commits to decide
// whether the verdict survives an interleaved edit.
func (c *IncrementalChecker) CheckStem(a netlist.NodeID, src Source) (Verdict, []netlist.NodeID) {
	n := c.nl.Node(a)
	branches := append([]netlist.Branch(nil), n.Fanouts()...)
	return c.check(a, nil, branches, src)
}

// CheckBranch decides whether rewiring pin pin of gate g to the source is
// permissible, returning the verdict and the proof's support set.
func (c *IncrementalChecker) CheckBranch(g netlist.NodeID, pin int, src Source) (Verdict, []netlist.NodeID) {
	br := netlist.Branch{Gate: g, Pin: pin}
	return c.check(c.nl.Node(g).Fanins()[pin], &br, []netlist.Branch{br}, src)
}

// check decides the substitution of src for the changed branches: every
// fanout of stem a (branch nil), or the one branch, which a drives.
func (c *IncrementalChecker) check(a netlist.NodeID, branch *netlist.Branch, changed []netlist.Branch, src Source) (Verdict, []netlist.NodeID) {
	if c.nl.Version() != c.version {
		panic(fmt.Sprintf("atpg: netlist changed under IncrementalChecker (version %d -> %d)",
			c.version, c.nl.Version()))
	}
	c.Stats.Checks++
	c.cex = nil
	start := time.Now()
	ctx, sp := trace.StartSpan(c.Ctx, "atpg-check")
	defer sp.End()
	v, support, conflicts, decisions, byVector := c.decide(ctx, a, branch, changed, src)
	kind := "stem"
	if branch != nil {
		kind = "branch"
	}
	sp.SetAttr("kind", kind)
	sp.SetAttr("verdict", v.String())
	sp.SetAttr("branches", len(changed))
	sp.SetAttr("conflicts", conflicts)
	sp.SetAttr("decisions", decisions)
	sp.SetAttr("incremental", true)
	if byVector {
		sp.SetAttr("vector_refuted", true)
		c.Stats.VectorRefuted++
	}
	if c.Budget > 0 {
		sp.SetAttr("budget", c.Budget)
	}
	switch v {
	case Permissible:
		c.Stats.Permissible++
	case NotPermissible:
		c.Stats.Refuted++
	default:
		c.Stats.Aborted++
	}
	c.Stats.Conflicts += conflicts
	c.Stats.Decisions += decisions
	c.LastCheck = CheckDetail{
		Verdict:       v,
		VectorRefuted: byVector,
		Conflicts:     conflicts,
		Decisions:     decisions,
		Seconds:       time.Since(start).Seconds(),
		Budget:        c.Budget,
	}
	return v, support
}

func (c *IncrementalChecker) decide(ctx context.Context, a netlist.NodeID, branch *netlist.Branch, changed []netlist.Branch, src Source) (verdict Verdict, support []netlist.NodeID, conflicts, decisions int64, byVector bool) {
	if c.vs.sync(c.nl, c.Vectors) {
		if k := c.vs.refute(a, branch, src); k >= 0 {
			c.cex = c.Vectors[k]
			return NotPermissible, nil, 0, 0, true
		}
	}
	p := planMiter(c.nl, changed, src)
	if p.cyclic {
		return NotPermissible, nil, 0, 0, false
	}

	// Every variable beyond the encoded nodes belongs to a retired scope.
	if garbage := c.inc.Base().NumVars() - c.b.encoded; garbage > c.b.encoded {
		c.reset()
	}
	base := c.inc.Base()
	base.SetBudget(c.Budget)
	base.SetContext(ctx)
	scope := c.inc.Scope()
	defer scope.Retire()

	diffs := buildMiter(c.nl, c.b, scope, p)
	if len(diffs) == 0 || !scope.AddClause(diffs...) {
		return Permissible, p.support(c.nl), 0, 0, false
	}

	c0, d0 := base.Conflicts, base.Decisions
	res := scope.Solve()
	conflicts, decisions = base.Conflicts-c0, base.Decisions-d0
	switch res {
	case sat.Unsat:
		return Permissible, p.support(c.nl), conflicts, decisions, false
	case sat.Sat:
		c.cex = make([]bool, len(c.nl.Inputs()))
		for i, in := range c.nl.Inputs() {
			if v := c.b.varOf[in]; v >= 0 {
				c.cex[i] = base.Value(v)
			}
		}
		c.Vectors = append(c.Vectors, c.cex)
		return NotPermissible, nil, conflicts, decisions, false
	default:
		return Aborted, nil, conflicts, decisions, false
	}
}
