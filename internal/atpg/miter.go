package atpg

import (
	"powder/internal/netlist"
	"powder/internal/sat"
)

// miterPlan is the structural analysis of one substitution miter: which
// branches are rewired, which primary outputs that touches directly, and
// which gates must be duplicated because their function can change.
type miterPlan struct {
	src        Source
	changedPin map[netlist.Branch]bool
	changedPOs []int
	roots      []netlist.NodeID
	dup        map[netlist.NodeID]bool
	dupTopo    []netlist.NodeID // dup members in topological order
	// cyclic marks a source inside the duplicated region: the rewired
	// circuit would have a combinational cycle, never permissible.
	cyclic bool
}

// planMiter analyzes the substitution of the changed branches by src.
func planMiter(nl *netlist.Netlist, changed []netlist.Branch, src Source) *miterPlan {
	p := &miterPlan{
		src:        src,
		changedPin: make(map[netlist.Branch]bool, len(changed)),
	}
	for _, b := range changed {
		if b.IsPO() {
			p.changedPOs = append(p.changedPOs, b.Pin)
			continue
		}
		p.changedPin[b] = true
		p.roots = append(p.roots, b.Gate)
	}

	// Gates whose function can change: the rewired gates plus their TFO.
	p.dup = make(map[netlist.NodeID]bool)
	for _, r := range p.roots {
		p.dup[r] = true
		for id := range nl.TFO(r) {
			p.dup[id] = true
		}
	}
	if p.dup[src.B] || (src.IsThree() && p.dup[src.C]) {
		p.cyclic = true
		return p
	}
	for _, id := range nl.TopoOrder() {
		if p.dup[id] {
			p.dupTopo = append(p.dupTopo, id)
		}
	}
	return p
}

// buildMiter encodes the miter. Base-cone clauses flow through b (whose
// adder may be the permanent layer of an incremental solver, shared
// across proofs); the candidate-specific parts — source materialization,
// the duplicated region, and the XOR taps — flow through scoped. The
// returned literals assert "some primary output differs"; an empty slice
// means no output observes the change (trivially permissible).
func buildMiter(nl *netlist.Netlist, b *cnfBuilder, scoped sat.ClauseAdder, p *miterPlan) []sat.Lit {
	// Source variable.
	srcVar := b.nodeVar(p.src.B)
	if p.src.IsThree() {
		v := scoped.NewVar()
		encodeCellClauses(scoped, &b.lits, p.src.effectiveTT(), []int{b.nodeVar(p.src.B), b.nodeVar(p.src.C)}, v)
		srcVar = v
	} else if p.src.InvertB {
		v := scoped.NewVar()
		scoped.AddClause(append(b.lits[:0], sat.Pos(v), sat.Pos(srcVar))...)
		scoped.AddClause(append(b.lits[:0], sat.Neg(v), sat.Neg(srcVar))...)
		srcVar = v
	}

	// Duplicate the affected region in topological order.
	dupVar := make(map[netlist.NodeID]int, len(p.dup))
	for _, id := range p.dupTopo {
		n := nl.Node(id)
		var ins [maxCellInputs]int
		for pin, f := range n.Fanins() {
			switch {
			case p.changedPin[netlist.Branch{Gate: id, Pin: pin}]:
				ins[pin] = srcVar
			case p.dup[f]:
				ins[pin] = dupVar[f]
			default:
				ins[pin] = b.nodeVar(f)
			}
		}
		v := scoped.NewVar()
		encodeCellClauses(scoped, &b.lits, n.Cell().TT, ins[:len(n.Fanins())], v)
		dupVar[id] = v
	}

	// Miter taps: some primary output differs.
	var diffs []sat.Lit
	seenPO := make(map[int]bool)
	for _, poIdx := range p.changedPOs {
		seenPO[poIdx] = true
		d := nl.Outputs()[poIdx].Driver
		diffs = append(diffs, sat.Pos(xorVar(scoped, &b.lits, b.nodeVar(d), srcVar)))
	}
	for poIdx, po := range nl.Outputs() {
		if seenPO[poIdx] || !p.dup[po.Driver] {
			continue
		}
		diffs = append(diffs, sat.Pos(xorVar(scoped, &b.lits, b.nodeVar(po.Driver), dupVar[po.Driver])))
	}
	return diffs
}

// support returns every node the miter's verdict depends on: the
// duplicated region plus the transitive fanin closure of the source, of
// the duplicated region's external fanins, and of the changed primary
// outputs' drivers. As long as none of these nodes is touched by a
// concurrent edit, the miter built on a pre-edit snapshot is isomorphic
// to the one the post-edit netlist would produce, so the verdict carries
// over; this is the conflict-detection set of the region engine.
func (p *miterPlan) support(nl *netlist.Netlist) []netlist.NodeID {
	if p.cyclic {
		return nil
	}
	in := make(map[netlist.NodeID]bool, 2*len(p.dup))
	var stack []netlist.NodeID
	push := func(id netlist.NodeID) {
		if !in[id] {
			in[id] = true
			stack = append(stack, id)
		}
	}
	push(p.src.B)
	if p.src.IsThree() {
		push(p.src.C)
	}
	for _, poIdx := range p.changedPOs {
		push(nl.Outputs()[poIdx].Driver)
	}
	for _, id := range p.dupTopo {
		push(id)
		for _, f := range nl.Node(id).Fanins() {
			push(f)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range nl.Node(id).Fanins() {
			push(f)
		}
	}
	out := make([]netlist.NodeID, 0, len(in))
	for id := range in {
		out = append(out, id)
	}
	return out
}
