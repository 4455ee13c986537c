// Package atpg provides the test-generation machinery POWDER relies on:
//
//   - a CNF encoder for mapped netlists (Tseitin-style, cube-compressed),
//   - a permissibility checker that proves or refutes signal substitutions
//     by building the substitution miter and deciding it with a budgeted
//     CDCL search (the budget overrun plays the role of the paper's "ATPG
//     aborted" outcome),
//   - a classic 5-valued PODEM stuck-at test generator, and
//   - a parallel-pattern fault simulator.
//
// The paper identifies permissible substitutions with ATPG-based implication
// techniques; we use the same miter formulation decided by a complete
// conflict-driven procedure (see DESIGN.md for the substitution note).
package atpg

import (
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/sat"
)

// cnfBuilder incrementally encodes netlist nodes onto a clause adder —
// a one-shot solver, or the permanent layer of an incremental one.
type cnfBuilder struct {
	nl *netlist.Netlist
	s  sat.ClauseAdder
	// varOf maps node IDs to solver variables; -1 = not yet encoded.
	varOf []int
	// encoded counts the nodes encoded so far, one variable each.
	encoded int
}

func newCNFBuilder(nl *netlist.Netlist, s sat.ClauseAdder) *cnfBuilder {
	v := make([]int, nl.NumNodes())
	for i := range v {
		v[i] = -1
	}
	return &cnfBuilder{nl: nl, s: s, varOf: v}
}

// nodeVar returns the solver variable of a node, encoding its transitive
// fanin cone on first use.
func (b *cnfBuilder) nodeVar(id netlist.NodeID) int {
	if b.varOf[id] >= 0 {
		return b.varOf[id]
	}
	b.encoded++
	n := b.nl.Node(id)
	if n.Kind() == netlist.KindInput {
		v := b.s.NewVar()
		b.varOf[id] = v
		return v
	}
	ins := make([]int, len(n.Fanins()))
	for pin, f := range n.Fanins() {
		ins[pin] = b.nodeVar(f)
	}
	v := b.s.NewVar()
	b.varOf[id] = v
	encodeCellClauses(b.s, n.Cell().TT, ins, v)
	return v
}

// encodeCellClauses emits CNF clauses asserting out == f(ins) for the
// 6-or-fewer-variable truth table f. Onset and offset minterms are first
// compressed with the cube minimizer, so simple gates get their familiar
// compact encodings (an AND2 yields 3 clauses, not 4).
func encodeCellClauses(s sat.ClauseAdder, tt logic.TT, ins []int, out int) {
	n := tt.N
	onset := logic.NewSOP(n)
	offset := logic.NewSOP(n)
	for m := uint(0); m < 1<<uint(n); m++ {
		var c logic.Cube
		for i := 0; i < n; i++ {
			c.Mask |= 1 << uint(i)
			if m>>uint(i)&1 == 1 {
				c.Val |= 1 << uint(i)
			}
		}
		if tt.Eval(m) {
			onset.Add(c)
		} else {
			offset.Add(c)
		}
	}
	onset.Minimize()
	offset.Minimize()
	// Onset cube c: (inputs match c) -> out, i.e. clause (out OR any input
	// literal opposite to c).
	for _, c := range onset.Cubes {
		lits := []sat.Lit{sat.Pos(out)}
		lits = appendCubeOpposite(lits, c, n, ins)
		s.AddClause(lits...)
	}
	// Offset cube c: (inputs match c) -> !out.
	for _, c := range offset.Cubes {
		lits := []sat.Lit{sat.Neg(out)}
		lits = appendCubeOpposite(lits, c, n, ins)
		s.AddClause(lits...)
	}
}

func appendCubeOpposite(lits []sat.Lit, c logic.Cube, n int, ins []int) []sat.Lit {
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if c.Mask&bit == 0 {
			continue
		}
		if c.Val&bit != 0 {
			lits = append(lits, sat.Neg(ins[i]))
		} else {
			lits = append(lits, sat.Pos(ins[i]))
		}
	}
	return lits
}

// xorVar returns a fresh variable constrained to a XOR b.
func xorVar(s sat.ClauseAdder, a, b int) int {
	d := s.NewVar()
	s.AddClause(sat.Neg(d), sat.Pos(a), sat.Pos(b))
	s.AddClause(sat.Neg(d), sat.Neg(a), sat.Neg(b))
	s.AddClause(sat.Pos(d), sat.Neg(a), sat.Pos(b))
	s.AddClause(sat.Pos(d), sat.Pos(a), sat.Neg(b))
	return d
}
