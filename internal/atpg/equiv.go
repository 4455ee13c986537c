package atpg

import (
	"context"
	"fmt"

	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/sat"
)

// EquivResult is the outcome of a combinational equivalence check.
type EquivResult struct {
	Verdict Verdict
	// Counterexample holds a distinguishing input assignment (by the
	// input names of the first circuit) when Verdict is NotPermissible.
	Counterexample map[string]bool
	// DifferingOutput names the first output, in the first circuit's
	// output order, that differs under the counterexample.
	DifferingOutput string
}

// Equivalent decides combinational equivalence of two netlists with the
// same budgeted CDCL engine the substitution checker uses. Inputs and
// outputs are matched by name; both circuits must expose identical output
// sets, and an input only one side has is a free variable. budget bounds
// the conflicts of the whole check; budget <= 0 uses a generous default.
// Outputs are decided in x's order, so equal outputs that spend the
// budget end the check Aborted before a later output that differs is
// searched.
func Equivalent(x, y *netlist.Netlist, budget int64) (*EquivResult, error) {
	return EquivalentCtx(context.Background(), x, y, budget)
}

// EquivalentCtx is Equivalent under a cancellation context: the SAT
// search polls ctx, and a search the cancelled context interrupts yields
// an Aborted verdict promptly instead of running to completion.
//
// Both netlists are encoded into one solver through a structural-hash
// table: inputs of the same name share a variable, and a gate whose cell
// function and fanin variables match an encoded gate's reuses that
// gate's variable and adds no clause. An output pair whose drivers share
// a variable is equal without search; the others are decided one at a
// time in x's output order, each by a solve under the assumption that
// its XOR is true. A refuted XOR is fixed false, so what the solver
// learnt carries over to the next output.
func EquivalentCtx(ctx context.Context, x, y *netlist.Netlist, budget int64) (*EquivResult, error) {
	yOut := make(map[string]netlist.NodeID)
	for _, po := range y.Outputs() {
		yOut[po.Name] = po.Driver
	}
	type outPair struct {
		name string
		x, y netlist.NodeID
	}
	var pairsOut []outPair
	for _, po := range x.Outputs() {
		yd, ok := yOut[po.Name]
		if !ok {
			return nil, fmt.Errorf("atpg: output %q missing in %s", po.Name, y.Name)
		}
		pairsOut = append(pairsOut, outPair{name: po.Name, x: po.Driver, y: yd})
	}
	if len(pairsOut) != len(y.Outputs()) {
		return nil, fmt.Errorf("atpg: output sets differ (%d vs %d)", len(pairsOut), len(y.Outputs()))
	}

	if budget <= 0 {
		budget = 500000
	}
	s := sat.New()
	s.SetContext(ctx)
	m := &hashedMiter{s: s, inputs: make(map[string]int), gates: make(map[gateKey]int)}
	ex, ey := m.side(x), m.side(y)
	for _, p := range pairsOut {
		a, b := ex.nodeVar(p.x), ey.nodeVar(p.y)
		if a == b {
			continue
		}
		left := budget - s.Conflicts
		if left <= 0 {
			return &EquivResult{Verdict: Aborted}, nil
		}
		s.SetBudget(left)
		d := xorVar(s, &m.lits, a, b)
		switch s.Solve(sat.Pos(d)) {
		case sat.Unsat:
			s.AddClause(sat.Neg(d))
		case sat.Sat:
			res := &EquivResult{Verdict: NotPermissible, Counterexample: make(map[string]bool), DifferingOutput: p.name}
			for _, id := range x.Inputs() {
				res.Counterexample[x.Node(id).Name()] = s.Value(ex.varOf[id])
			}
			return res, nil
		default:
			return &EquivResult{Verdict: Aborted}, nil
		}
	}
	return &EquivResult{Verdict: Permissible}, nil
}

// hashedMiter encodes several netlists onto one solver through a
// structural-hash table. Merging is sound because a gate's variable is
// constrained to its cell function of its fanin variables: two gates
// with the same function of the same variables are equal under every
// assignment, so they may be one variable.
type hashedMiter struct {
	s *sat.Solver
	// inputs maps an input name to its variable.
	inputs map[string]int
	// gates maps a gate key to the variable of the first gate encoded
	// with it.
	gates map[gateKey]int
	// lits is the clause buffer of the gates encoded and the output taps.
	lits clauseBuf
}

// gateKey identifies a gate's function up to drive strength: the cell's
// truth table over the ordered fanin variables.
type gateKey struct {
	tt  logic.TT
	ins [maxCellInputs]int
}

// miterSide is one netlist's view of a hashedMiter.
type miterSide struct {
	m  *hashedMiter
	nl *netlist.Netlist
	// varOf maps node IDs to solver variables; -1 = not yet encoded.
	varOf []int
}

// side returns nl's side of the miter with its inputs encoded, each on
// the variable of its name.
func (m *hashedMiter) side(nl *netlist.Netlist) *miterSide {
	e := &miterSide{m: m, nl: nl, varOf: make([]int, nl.NumNodes())}
	for i := range e.varOf {
		e.varOf[i] = -1
	}
	for _, id := range nl.Inputs() {
		name := nl.Node(id).Name()
		v, ok := m.inputs[name]
		if !ok {
			v = m.s.NewVar()
			m.inputs[name] = v
		}
		e.varOf[id] = v
	}
	return e
}

// nodeVar returns the variable of a node, encoding its transitive fanin
// cone on first use.
func (e *miterSide) nodeVar(id netlist.NodeID) int {
	if v := e.varOf[id]; v >= 0 {
		return v
	}
	n := e.nl.Node(id)
	key := gateKey{tt: n.Cell().TT}
	for pin, f := range n.Fanins() {
		key.ins[pin] = e.nodeVar(f)
	}
	v, ok := e.m.gates[key]
	if !ok {
		v = e.m.s.NewVar()
		encodeCellClauses(e.m.s, &e.m.lits, key.tt, key.ins[:key.tt.N], v)
		e.m.gates[key] = v
	}
	e.varOf[id] = v
	return v
}
