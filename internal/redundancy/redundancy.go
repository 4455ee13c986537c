// Package redundancy implements classic ATPG-based redundancy removal
// (Cheng/Entrena, EDAC'93 — the paper's reference [1]): a stuck-at fault
// that is provably untestable marks logic whose value never reaches a
// primary output, so the faulty constant can be wired in and the circuit
// simplified without changing any output function.
//
// In this repository the pass serves two roles: it is the natural
// *baseline* algorithm next to POWDER (how much power does plain
// redundancy removal recover?), and it acts as a stand-in for the
// POSE-grade area optimization of the paper's initial circuits (see
// expt.RunOptions.PreOptimize).
package redundancy

import (
	"fmt"

	"powder/internal/atpg"
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/sim"
)

// Options configures a removal pass. It has no fields, as the pass
// always runs with the constants below; it stays so that callers' literals,
// the benchmark harness's among them, keep compiling.
type Options struct{}

const (
	// maxRounds bounds the sweep count; every performed simplification
	// can expose new redundancies.
	maxRounds = 4
	// simWords is the sample-vector width used to fault-simulate before
	// invoking PODEM.
	simWords = 32
	// simSeed drives the random fault-simulation vectors.
	simSeed = 1
)

// Result summarizes a pass.
type Result struct {
	// Removed counts the redundant faults acted upon.
	Removed int
	// ProofsRun counts PODEM invocations.
	ProofsRun int
	// GatesBefore/GatesAfter track the structural effect.
	GatesBefore, GatesAfter int
	AreaBefore, AreaAfter   float64
}

func (r *Result) String() string {
	return fmt.Sprintf("redundancy: %d removals (%d proofs), gates %d -> %d, area %.0f -> %.0f",
		r.Removed, r.ProofsRun, r.GatesBefore, r.GatesAfter, r.AreaBefore, r.AreaAfter)
}

// Remove runs redundancy removal in place until no further untestable
// fault can be simplified.
func Remove(nl *netlist.Netlist, _ Options) (*Result, error) {
	res := &Result{
		GatesBefore: nl.GateCount(),
		AreaBefore:  nl.Area(),
	}
	for round := 0; round < maxRounds; round++ {
		changed, err := removeOnce(nl, res)
		if err != nil {
			return nil, err
		}
		if changed == 0 {
			break
		}
	}
	res.GatesAfter = nl.GateCount()
	res.AreaAfter = nl.Area()
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("redundancy: netlist invalid after pass: %v", err)
	}
	return res, nil
}

// removeOnce performs one sweep: fault-simulate to discard testable
// faults cheaply, PODEM the rest, and simplify for each proven-redundant
// fault (re-proving against the current structure before acting).
func removeOnce(nl *netlist.Netlist, res *Result) (int, error) {
	s := sim.New(nl, simWords)
	s.SetInputsRandom(simSeed, nil)
	s.Run()
	fs := atpg.NewFaultSim(s)
	_, undetected := fs.Coverage(atpg.AllFaults(nl))

	changed := 0
	cc := newConstCache()
	for _, f := range undetected {
		if !faultStillCurrent(nl, f) {
			continue // earlier simplifications removed the site
		}
		// Faults re-asserting an already-materialized constant are no-op
		// rewrites; skipping them keeps repeated passes convergent.
		if cv, ok := recognizeConstPattern(nl, f.Stem); ok && cv == f.StuckAt1 {
			continue
		}
		res.ProofsRun++
		// Limit 0 is PODEM's default backtrack limit; an aborted proof
		// leaves the fault in place (safe).
		if _, outcome := atpg.GenerateTest(nl, f, 0); outcome != atpg.Untestable {
			continue
		}
		ok, err := simplify(nl, f, cc)
		if err != nil {
			return changed, err
		}
		if ok {
			changed++
			res.Removed++
		}
	}
	nl.SweepDead()
	return changed, nil
}

// faultStillCurrent checks the fault site still exists in the evolving
// netlist.
func faultStillCurrent(nl *netlist.Netlist, f atpg.Fault) bool {
	if int(f.Stem) >= nl.NumNodes() || nl.Node(f.Stem).Dead() {
		return false
	}
	if f.IsBranch() {
		if int(f.BranchGate) >= nl.NumNodes() || nl.Node(f.BranchGate).Dead() {
			return false
		}
		g := nl.Node(f.BranchGate)
		if f.BranchPin >= len(g.Fanins()) || g.Fanins()[f.BranchPin] != f.Stem {
			return false
		}
	}
	return true
}

// simplify wires the untestable fault's constant in. The licensed
// rewrite (single-stuck-at redundancy theorem) is: replace the faulty
// line by the constant. To keep the step atomic — folding one branch can
// restructure gates that other branches of the same stem still feed —
// the constant is first materialized as a node and *rewired* in (a pure,
// order-independent edit), and only then are the constant drivers folded
// into their fanout gates, each fold being locally sound on its own.
func simplify(nl *netlist.Netlist, f atpg.Fault, cc *constCache) (bool, error) {
	// Snapshot the affected branches BEFORE materializing the constant:
	// the constant structure may itself read the faulty stem (when it is
	// the first primary input), and those fresh pins must not be rewired.
	var branches []netlist.Branch
	if !f.IsBranch() {
		branches = append(branches, nl.Node(f.Stem).Fanouts()...)
	}
	cn, err := cc.node(nl, f.StuckAt1)
	if err != nil {
		return false, err
	}
	if f.IsBranch() {
		// A reused constant gate may sit inside or downstream of the
		// branch gate; rewiring would then be cyclic — skip the fault
		// (safe: the redundancy simply stays).
		if constCone(nl, cn)[f.BranchGate] || nl.Reaches(f.BranchGate, cn) {
			return false, nil
		}
		if err := nl.ReplaceFanin(f.BranchGate, f.BranchPin, cn); err != nil {
			return false, err
		}
		return true, cc.propagate(nl)
	}
	// Stem fault: every fanout of the stem reads the constant. Primary
	// outputs are redirected too (the theorem covers them; an untestable
	// stem fault on a live PO driver means the stem is that constant).
	//
	// Branches inside the constant's own defining cone are skipped: the
	// constant gate computes its value regardless of those pins (x AND !x
	// is 0 for any x), and its inverter feeds nothing else, so leaving
	// them attached is equivalent to the full replacement — and rewiring
	// them would create cycles.
	inCone := constCone(nl, cn)
	// If any branch gate outside the constant's cone could reach the
	// reused constant, rewiring it would be cyclic, and skipping just that
	// branch would only partially apply the stem rewrite (unsound) — so
	// give up on this fault entirely before mutating anything.
	for _, b := range branches {
		if !b.IsPO() && !inCone[b.Gate] && nl.Reaches(b.Gate, cn) {
			return false, nil
		}
	}
	did := false
	for _, b := range branches {
		if b.IsPO() {
			if err := nl.RedirectOutput(b.Pin, cn); err != nil {
				return false, err
			}
			did = true
			continue
		}
		if inCone[b.Gate] {
			continue
		}
		if err := nl.ReplaceFanin(b.Gate, b.Pin, cn); err != nil {
			return false, err
		}
		did = true
	}
	if !did {
		// Nothing to rewire (e.g. a fanout-free stem): not a change.
		return false, nil
	}
	return true, cc.propagate(nl)
}

// constCone returns the constant gate plus its defining inverter.
func constCone(nl *netlist.Netlist, cn netlist.NodeID) map[netlist.NodeID]bool {
	cone := map[netlist.NodeID]bool{cn: true}
	for _, f := range nl.Node(cn).Fanins() {
		fn := nl.Node(f)
		if fn.Kind() == netlist.KindGate && fn.Cell().IsInverter() {
			cone[f] = true
		}
	}
	return cone
}

// constCache materializes at most one constant-0 and one constant-1 node
// per pass and drives constant propagation.
type constCache struct {
	zero, one    netlist.NodeID
	have0, have1 bool
}

func newConstCache() *constCache {
	return &constCache{zero: netlist.InvalidNode, one: netlist.InvalidNode}
}

func (cc *constCache) node(nl *netlist.Netlist, v bool) (netlist.NodeID, error) {
	if v {
		if !cc.have1 || nl.Node(cc.one).Dead() {
			id, err := findOrBuildConst(nl, true)
			if err != nil {
				return netlist.InvalidNode, err
			}
			cc.one, cc.have1 = id, true
		}
		return cc.one, nil
	}
	if !cc.have0 || nl.Node(cc.zero).Dead() {
		id, err := findOrBuildConst(nl, false)
		if err != nil {
			return netlist.InvalidNode, err
		}
		cc.zero, cc.have0 = id, true
	}
	return cc.zero, nil
}

// findOrBuildConst reuses a canonical constant gate left by an earlier
// round (keeping repeated passes convergent) or builds a fresh one.
func findOrBuildConst(nl *netlist.Netlist, v bool) (netlist.NodeID, error) {
	var found netlist.NodeID = netlist.InvalidNode
	nl.LiveNodes(func(n *netlist.Node) {
		if found != netlist.InvalidNode {
			return
		}
		if cv, ok := recognizeConstPattern(nl, n.ID()); ok && cv == v {
			found = n.ID()
		}
	})
	if found != netlist.InvalidNode {
		return found, nil
	}
	return constantNode(nl, v)
}

// recognizeConstPattern reports whether the node is a canonical
// materialized constant: AND2/OR2 over the first primary input and an
// inverter of that same input.
func recognizeConstPattern(nl *netlist.Netlist, id netlist.NodeID) (value, ok bool) {
	n := nl.Node(id)
	if n.Dead() || n.Kind() != netlist.KindGate || len(n.Fanins()) != 2 {
		return false, false
	}
	andTT := logic.TTFromExpr(logic.And(logic.Var(0), logic.Var(1)), 2)
	orTT := logic.TTFromExpr(logic.Or(logic.Var(0), logic.Var(1)), 2)
	var isAnd bool
	switch {
	case n.Cell().TT.Equal(andTT):
		isAnd = true
	case n.Cell().TT.Equal(orTT):
		isAnd = false
	default:
		return false, false
	}
	x, y := n.Fanins()[0], n.Fanins()[1]
	// The inverter side must feed only this gate, so that leaving the
	// pattern attached to a replaced stem stays equivalent (see simplify).
	isDedicatedInvOf := func(g, src netlist.NodeID) bool {
		gn := nl.Node(g)
		return gn.Kind() == netlist.KindGate && gn.Cell().IsInverter() &&
			gn.Fanins()[0] == src && gn.NumFanouts() == 1
	}
	if !(isDedicatedInvOf(y, x) || isDedicatedInvOf(x, y)) {
		return false, false
	}
	return !isAnd, true
}

// valueOf reports whether id is one of the cached constant nodes.
func (cc *constCache) valueOf(id netlist.NodeID) (bool, bool) {
	if cc.have1 && id == cc.one {
		return true, true
	}
	if cc.have0 && id == cc.zero {
		return false, true
	}
	return false, false
}

// propagate folds every gate pin driven by a constant node until none
// remains; each fold replaces one gate by its cofactor, which is sound in
// isolation because the driver genuinely computes the constant. Pins whose
// residual function has no library cell are skipped (the constant stays
// wired, which is functionally correct).
func (cc *constCache) propagate(nl *netlist.Netlist) error {
	type pinKey struct {
		g   netlist.NodeID
		pin int
	}
	skipped := make(map[pinKey]bool)
	for {
		var g netlist.NodeID = netlist.InvalidNode
		pin := -1
		v := false
		nl.LiveNodes(func(n *netlist.Node) {
			if g != netlist.InvalidNode || n.Kind() != netlist.KindGate {
				return
			}
			// Fanout-free gates are dead weight awaiting the sweep; folding
			// them would spin forever since rewiring moves nothing.
			if n.NumFanouts() == 0 {
				return
			}
			// The constant nodes' own structure (x, !x) is not constant-fed.
			if _, ok := cc.valueOf(n.ID()); ok {
				return
			}
			for p, f := range n.Fanins() {
				if skipped[pinKey{n.ID(), p}] {
					continue
				}
				if cv, ok := cc.valueOf(f); ok {
					g, pin, v = n.ID(), p, cv
					return
				}
			}
		})
		if g == netlist.InvalidNode {
			return nil
		}
		// A fold is one-shot: whatever fanouts it could move have moved
		// (cycle-blocked ones legitimately stay behind). Never revisit the
		// pin, or blocked rewires would spin forever.
		skipped[pinKey{g, pin}] = true
		switch err := foldPin(nl, g, pin, v, cc); err {
		case nil, errSkipFold:
		default:
			return err
		}
	}
}

// foldPin replaces gate g by the cofactor of its cell function under pin
// pin = v (the pin's driver is a constant node). Three shapes arise: a
// constant output (fanouts move to the matching constant node), a single
// surviving pin (wire or inverter), or a smaller residual function looked
// up in the library (errSkipFold when absent).
func foldPin(nl *netlist.Netlist, g netlist.NodeID, pin int, v bool, cc *constCache) error {
	n := nl.Node(g)
	cell := n.Cell()
	co := cell.TT.Cofactor(pin, v)

	// Which pins does the cofactor still depend on?
	var deps []int
	for i := 0; i < cell.TT.N; i++ {
		if co.DependsOn(i) {
			deps = append(deps, i)
		}
	}

	switch {
	case len(deps) == 0:
		constant := co.Bits&1 == 1
		cn, err := cc.node(nl, constant)
		if err != nil {
			return err
		}
		return rewireAllFanouts(nl, g, cn)

	case len(deps) == 1:
		src := n.Fanins()[deps[0]]
		identity := true
		inversion := true
		for m := uint(0); m < 1<<uint(cell.TT.N); m++ {
			bit := m>>uint(deps[0])&1 == 1
			if co.Eval(m) != bit {
				identity = false
			}
			if co.Eval(m) == bit {
				inversion = false
			}
		}
		switch {
		case identity:
			return rewireAllFanouts(nl, g, src)
		case inversion:
			inv := nl.Lib.Inverter()
			ng, err := nl.AddGate("", inv, []netlist.NodeID{src})
			if err != nil {
				return err
			}
			return rewireAllFanouts(nl, g, ng)
		default:
			return fmt.Errorf("redundancy: 1-dep cofactor neither wire nor inverter")
		}

	default:
		small := compressTT(co, deps)
		match := nl.Lib.SmallestMatch(small)
		if match == nil {
			// No library cell computes the residual function. The gate
			// keeps reading the constant node — functionally correct, just
			// unsimplified — and propagate() stops retrying this pin.
			return errSkipFold
		}
		fanins := make([]netlist.NodeID, len(deps))
		for i, d := range deps {
			fanins[i] = n.Fanins()[d]
		}
		ng, err := nl.AddGate("", match, fanins)
		if err != nil {
			return err
		}
		return rewireAllFanouts(nl, g, ng)
	}
}

// errSkipFold reports a pin whose residual function has no library cell;
// the constant stays wired (functionally correct) and the pin is skipped.
var errSkipFold = fmt.Errorf("redundancy: no cell for residual cofactor")

// constantNode materializes a constant signal over the first input.
func constantNode(nl *netlist.Netlist, v bool) (netlist.NodeID, error) {
	if len(nl.Inputs()) == 0 {
		return netlist.InvalidNode, fmt.Errorf("redundancy: constant output needs an input")
	}
	x := nl.Inputs()[0]
	inv := nl.Lib.Inverter()
	nx, err := nl.AddGate("", inv, []netlist.NodeID{x})
	if err != nil {
		return netlist.InvalidNode, err
	}
	var tt logic.TT
	if v {
		tt = logic.TTFromExpr(logic.Or(logic.Var(0), logic.Var(1)), 2)
	} else {
		tt = logic.TTFromExpr(logic.And(logic.Var(0), logic.Var(1)), 2)
	}
	cell := nl.Lib.SmallestMatch(tt)
	if cell == nil {
		return netlist.InvalidNode, fmt.Errorf("redundancy: library lacks AND2/OR2")
	}
	return nl.AddGate("", cell, []netlist.NodeID{x, nx})
}

// rewireAllFanouts moves the fanouts of g (including POs) to src, which
// computes the same function as g's replacement. Branches that would
// close a cycle — pins of src itself or of gates upstream of src, which
// can only happen when src is a reused constant gate — are left on g;
// per-branch application is sound because src ≡ g's (new) function.
func rewireAllFanouts(nl *netlist.Netlist, g, src netlist.NodeID) error {
	branches := append([]netlist.Branch(nil), nl.Node(g).Fanouts()...)
	for _, b := range branches {
		if b.IsPO() {
			if err := nl.RedirectOutput(b.Pin, src); err != nil {
				return err
			}
			continue
		}
		if b.Gate == src || nl.Reaches(b.Gate, src) {
			continue
		}
		if err := nl.ReplaceFanin(b.Gate, b.Pin, src); err != nil {
			return err
		}
	}
	return nil
}

// compressTT re-expresses tt over only the dependent variables deps (in
// their given order).
func compressTT(tt logic.TT, deps []int) logic.TT {
	out := logic.TT{N: len(deps)}
	for m := uint(0); m < 1<<uint(len(deps)); m++ {
		var full uint
		for i, d := range deps {
			if m>>uint(i)&1 == 1 {
				full |= 1 << uint(d)
			}
		}
		if tt.Eval(full) {
			out.Bits |= 1 << uint64(m)
		}
	}
	return out
}
