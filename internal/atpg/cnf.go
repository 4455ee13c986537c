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
	"sync"

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
	// lits is the clause buffer of the cells encoded through the builder
	// and of the miters built on it.
	lits clauseBuf
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
	var ins [maxCellInputs]int
	for pin, f := range n.Fanins() {
		ins[pin] = b.nodeVar(f)
	}
	v := b.s.NewVar()
	b.varOf[id] = v
	encodeCellClauses(b.s, &b.lits, n.Cell().TT, ins[:len(n.Fanins())], v)
	return v
}

// clauseBuf holds one clause of a cell encoding, miter tap or inverted
// miter source. A clause passed through the sat.ClauseAdder interface
// escapes, so encodeCellClauses, xorVar and buildMiter build their
// clauses in a buffer their caller owns rather than one allocated per
// call.
type clauseBuf [1 + maxCellInputs]sat.Lit

// encodeCellClauses emits CNF clauses asserting out == f(ins) for the
// 6-or-fewer-variable truth table f, from the table's clause template,
// building each clause in buf.
func encodeCellClauses(s sat.ClauseAdder, buf *clauseBuf, tt logic.TT, ins []int, out int) {
	for _, c := range cellTemplate(tt) {
		lits := append(buf[:0], sat.Neg(out))
		if c.onset {
			lits[0] = sat.Pos(out)
		}
		for i := 0; i < tt.N; i++ {
			bit := uint8(1) << uint(i)
			switch {
			case c.mask&bit == 0:
			case c.val&bit != 0:
				lits = append(lits, sat.Neg(ins[i]))
			default:
				lits = append(lits, sat.Pos(ins[i]))
			}
		}
		s.AddClause(lits...)
	}
}

// maxCellInputs is the most inputs a library cell has.
const maxCellInputs = 6

// cellClause is one clause of a truth table's CNF template: out (onset
// cube) or !out (offset cube), then for every input in the cube the
// literal opposite to its value in the cube.
type cellClause struct {
	onset     bool
	mask, val uint8
}

// cellTemplates maps each logic.TT encoded so far to its []cellClause;
// the tables of a run are those of its library's cells and of the 2-input
// gates the 3-signal substitutions insert. Region workers encode
// concurrently.
var cellTemplates sync.Map

// cellTemplate returns the clause template of tt, compiling it once.
func cellTemplate(tt logic.TT) []cellClause {
	if t, ok := cellTemplates.Load(tt); ok {
		return t.([]cellClause)
	}
	t, _ := cellTemplates.LoadOrStore(tt, compileCellTemplate(tt))
	return t.([]cellClause)
}

// compileCellTemplate compresses the onset and offset minterms of tt with
// the cube minimizer, so simple gates get their familiar compact
// encodings (an AND2 yields 3 clauses, not 4): the onset cubes' clauses
// first, then the offset cubes'.
func compileCellTemplate(tt logic.TT) []cellClause {
	n := tt.N
	onset := logic.NewSOP(n)
	offset := logic.NewSOP(n)
	for m := uint(0); m < 1<<uint(n); m++ {
		c := logic.Cube{Mask: 1<<uint(n) - 1, Val: uint64(m)}
		if tt.Eval(m) {
			onset.Add(c)
		} else {
			offset.Add(c)
		}
	}
	onset.Minimize()
	offset.Minimize()
	t := make([]cellClause, 0, len(onset.Cubes)+len(offset.Cubes))
	for _, c := range onset.Cubes {
		t = append(t, cellClause{onset: true, mask: uint8(c.Mask), val: uint8(c.Val)})
	}
	for _, c := range offset.Cubes {
		t = append(t, cellClause{mask: uint8(c.Mask), val: uint8(c.Val)})
	}
	return t
}

// xorVar returns a fresh variable constrained to a XOR b, building its
// clauses in buf.
func xorVar(s sat.ClauseAdder, buf *clauseBuf, a, b int) int {
	d := s.NewVar()
	for _, c := range [4][3]sat.Lit{
		{sat.Neg(d), sat.Pos(a), sat.Pos(b)},
		{sat.Neg(d), sat.Neg(a), sat.Neg(b)},
		{sat.Pos(d), sat.Neg(a), sat.Pos(b)},
		{sat.Pos(d), sat.Pos(a), sat.Neg(b)},
	} {
		s.AddClause(append(buf[:0], c[:]...)...)
	}
	return d
}
