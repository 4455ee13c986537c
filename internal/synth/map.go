package synth

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
)

// CostMode selects the mapper's objective.
type CostMode int

const (
	// CostArea minimizes total cell area (classic mapping).
	CostArea CostMode = iota
	// CostPower minimizes switched capacitance, approximating the
	// low-power mapping of the POSE flow the paper's initial circuits came
	// from.
	CostPower
)

// cut is a cone rooted at a node whose leaves are other graph nodes; the
// cone computes tt over the leaves (variable i = leaves[i]).
type cut struct {
	leaves []int32
	tt     logic.TT
}

const (
	maxCutLeaves = 4
	maxCutsPer   = 10
)

// mapper covers the graph with library cells.
type mapper struct {
	g    *graph
	lib  *cellib.Library
	mode CostMode
	// prob[node] is the estimated signal probability (for CostPower).
	prob []float64
	// refs counts structural references (fanouts + output uses).
	refs []int

	cuts [][]cut
	// best match per node: chosen cut index, cell, the pin permutation
	// (leaf i drives cell pin bestPerm[i]), and whether an inverter
	// follows the cell (complement realization).
	bestCut  []int
	bestCell []*cellib.Cell
	bestPerm [][]int
	bestInv  []bool
	bestCost []float64

	classes map[uint64][]*cellib.Cell
}

// classIndex groups library cells by permutation-equivalence class of
// their truth tables, so cut matching can reorder fanins.
func (m *mapper) classIndex() map[uint64][]*cellib.Cell {
	if m.classes == nil {
		m.classes = make(map[uint64][]*cellib.Cell)
		for _, c := range m.lib.Cells() {
			key := c.TT.NPNClass()
			m.classes[key] = append(m.classes[key], c)
		}
	}
	return m.classes
}

// match finds the cheapest cell realizing the cut's function under some
// input permutation; perm[i] is the cell pin driven by leaf i. When no
// cell computes the function directly, a cell computing its complement
// followed by an inverter is considered (needInv), so NAND/NOR-based
// libraries cover AND/OR cuts.
func (m *mapper) match(c cut) (best *cellib.Cell, bestPerm []int, bestCost float64, needInv, ok bool) {
	try := func(target logic.TT, inv bool) {
		for _, cell := range m.classIndex()[target.NPNClass()] {
			if cell.TT.N != target.N {
				continue
			}
			perm := findPermutation(target, cell.TT)
			if perm == nil {
				continue
			}
			cost := m.matchCost(c, cell, perm)
			if inv {
				cost += m.inverterCost()
			}
			if !ok || cost < bestCost {
				best, bestPerm, bestCost, needInv, ok = cell, perm, cost, inv, true
			}
		}
	}
	try(c.tt, false)
	try(c.tt.Not(), true)
	return best, bestPerm, bestCost, needInv, ok
}

// inverterCost is the DP cost of the complement-realization inverter.
func (m *mapper) inverterCost() float64 {
	inv := m.lib.Inverter()
	if inv == nil {
		return 1e18 // Compile validates the library, so this is unreachable
	}
	switch m.mode {
	case CostPower:
		// The intermediate signal drives one inverter pin; its switching
		// activity is that of the (complemented) node itself, bounded by
		// the worst case 0.5 here since the DP runs before emission.
		return inv.Pins[0].Cap*0.5 + inv.Area*1e-6
	default:
		return inv.Area
	}
}

// findPermutation returns perm with from.Permute(perm) == to, or nil.
func findPermutation(from, to logic.TT) []int {
	perm := make([]int, from.N)
	used := make([]bool, from.N)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == from.N {
			return from.Permute(perm).Bits == to.Bits
		}
		for p := 0; p < from.N; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			perm[i] = p
			if rec(i + 1) {
				return true
			}
			used[p] = false
		}
		return false
	}
	if rec(0) {
		return perm
	}
	return nil
}

// enumerate computes cuts bottom-up. The trivial cut {node} is always
// present (with the identity function) except for leaves.
func (m *mapper) enumerate() {
	g := m.g
	n := len(g.ops)
	m.cuts = make([][]cut, n)
	for id := int32(0); id < int32(n); id++ {
		op := g.ops[id]
		if op == gConst0 || op == gVar {
			continue
		}
		var out []cut
		fan := g.fanins(id)
		// Child cut choices: either the child as a leaf, or (when the
		// child is an internal single-reference node) any of its cuts.
		choices := make([][]cut, len(fan))
		for i, f := range fan {
			ch := []cut{{leaves: []int32{f}, tt: logic.TT{}}}
			if m.refs[f] == 1 && g.ops[f] != gVar && g.ops[f] != gConst0 {
				ch = append(ch, m.cuts[f]...)
			}
			choices[i] = ch
		}
		switch len(fan) {
		case 1:
			for _, c := range choices[0] {
				if nc, ok := m.composeNot(id, c); ok {
					out = append(out, nc)
				}
			}
		case 2:
			for _, ca := range choices[0] {
				for _, cb := range choices[1] {
					if nc, ok := m.compose2(id, ca, cb); ok {
						out = append(out, nc)
					}
				}
			}
		}
		// The direct cut (children as leaves) is always the first
		// combination built above; keep it unconditionally so every node
		// stays mappable, and prefer larger cones among the rest.
		direct := out[0]
		rest := out[1:]
		sort.Slice(rest, func(i, j int) bool { return len(rest[i].leaves) > len(rest[j].leaves) })
		if len(rest) > maxCutsPer-1 {
			rest = rest[:maxCutsPer-1]
		}
		m.cuts[id] = append([]cut{direct}, rest...)
	}
}

// cutTT returns the function of a child cut as seen through its leaves; a
// leaf-cut child contributes the identity on its (single) leaf.
func childTT(c cut) logic.TT {
	if c.tt.N == 0 && len(c.leaves) == 1 {
		return logic.TTVar(0, 1)
	}
	return c.tt
}

// composeNot builds the cut for NOT(child cut).
func (m *mapper) composeNot(id int32, c cut) (cut, bool) {
	base := childTT(c)
	leaves := append([]int32(nil), c.leaves...)
	if len(leaves) > maxCutLeaves {
		return cut{}, false
	}
	return cut{leaves: leaves, tt: base.Not()}, true
}

// compose2 builds the cut for (childA op childB) with merged leaves.
func (m *mapper) compose2(id int32, ca, cb cut) (cut, bool) {
	leaves := append([]int32(nil), ca.leaves...)
	idxB := make([]int, len(cb.leaves))
	for i, l := range cb.leaves {
		found := -1
		for j, e := range leaves {
			if e == l {
				found = j
				break
			}
		}
		if found < 0 {
			if len(leaves) == maxCutLeaves {
				return cut{}, false
			}
			leaves = append(leaves, l)
			found = len(leaves) - 1
		}
		idxB[i] = found
	}
	n := len(leaves)
	if n > 6 {
		return cut{}, false
	}
	ttA := expandTT(childTT(ca), identityMap(len(ca.leaves)), n)
	ttB := expandTT(childTT(cb), idxB, n)
	var tt logic.TT
	switch m.g.ops[id] {
	case gAnd:
		tt = ttA.And(ttB)
	case gOr:
		tt = ttA.Or(ttB)
	case gXor:
		tt = ttA.Xor(ttB)
	default:
		return cut{}, false
	}
	return cut{leaves: leaves, tt: tt}, true
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// expandTT re-expresses tt (over k vars) over n vars with variable i of tt
// mapped to variable vmap[i].
func expandTT(tt logic.TT, vmap []int, n int) logic.TT {
	out := logic.TT{N: n}
	for m := uint(0); m < 1<<uint(n); m++ {
		var sub uint
		for i := 0; i < tt.N; i++ {
			if m>>uint(vmap[i])&1 == 1 {
				sub |= 1 << uint(i)
			}
		}
		if tt.Eval(sub) {
			out.Bits |= 1 << uint64(m)
		}
	}
	return out
}

// matchCost returns the DP cost of realizing the cut with the cell under
// the given pin permutation (leaf i drives pin perm[i]).
func (m *mapper) matchCost(c cut, cell *cellib.Cell, perm []int) float64 {
	cost := 0.0
	switch m.mode {
	case CostArea:
		cost = cell.Area
	case CostPower:
		// Switched capacitance: each leaf drives one cell pin.
		for i, l := range c.leaves {
			p := m.prob[l]
			cost += cell.Pins[perm[i]].Cap * 2 * p * (1 - p)
		}
		cost += cell.Area * 1e-6 // tie-break
	}
	for _, l := range c.leaves {
		cost += m.bestCost[l]
	}
	return cost
}

// cover runs the DP and records the best match per mappable node.
func (m *mapper) cover() error {
	g := m.g
	n := len(g.ops)
	m.bestCut = make([]int, n)
	m.bestCell = make([]*cellib.Cell, n)
	m.bestPerm = make([][]int, n)
	m.bestInv = make([]bool, n)
	m.bestCost = make([]float64, n)
	for id := int32(0); id < int32(n); id++ {
		op := g.ops[id]
		if op == gConst0 || op == gVar {
			m.bestCost[id] = 0
			continue
		}
		bestIdx := -1
		var bestCell *cellib.Cell
		var bestPerm []int
		bestInv := false
		bestCost := 0.0
		for ci, c := range m.cuts[id] {
			cell, perm, cost, inv, ok := m.match(c)
			if !ok {
				continue
			}
			if bestIdx < 0 || cost < bestCost {
				bestIdx, bestCell, bestPerm, bestInv, bestCost = ci, cell, perm, inv, cost
			}
		}
		if bestIdx < 0 {
			return fmt.Errorf("synth: no library match for node %d (op %d)", id, g.ops[id])
		}
		m.bestCut[id] = bestIdx
		m.bestCell[id] = bestCell
		m.bestPerm[id] = bestPerm
		m.bestInv[id] = bestInv
		m.bestCost[id] = bestCost
	}
	return nil
}

// emit walks the chosen cover from the outputs and creates netlist gates.
func (m *mapper) emit(nl *netlist.Netlist, inputIDs []netlist.NodeID, roots []int32) (map[int32]netlist.NodeID, error) {
	mapped := make(map[int32]netlist.NodeID)
	var emitNode func(id int32) (netlist.NodeID, error)
	emitNode = func(id int32) (netlist.NodeID, error) {
		if nid, ok := mapped[id]; ok {
			return nid, nil
		}
		g := m.g
		switch g.ops[id] {
		case gVar:
			nid := inputIDs[g.a[id]]
			mapped[id] = nid
			return nid, nil
		case gConst0:
			nid, err := m.emitConst(nl, inputIDs, false)
			if err != nil {
				return netlist.InvalidNode, err
			}
			mapped[id] = nid
			return nid, nil
		}
		// Constant 1 is NOT(const0); handled via the generic path only if
		// it survived simplification.
		if g.ops[id] == gNot && g.a[id] == 0 {
			nid, err := m.emitConst(nl, inputIDs, true)
			if err != nil {
				return netlist.InvalidNode, err
			}
			mapped[id] = nid
			return nid, nil
		}
		c := m.cuts[id][m.bestCut[id]]
		cell := m.bestCell[id]
		perm := m.bestPerm[id]
		fanins := make([]netlist.NodeID, len(c.leaves))
		for i, l := range c.leaves {
			nid, err := emitNode(l)
			if err != nil {
				return netlist.InvalidNode, err
			}
			fanins[perm[i]] = nid
		}
		nid, err := nl.AddGate("", cell, fanins)
		if err != nil {
			return netlist.InvalidNode, err
		}
		if m.bestInv[id] {
			nid, err = nl.AddGate("", nl.Lib.Inverter(), []netlist.NodeID{nid})
			if err != nil {
				return netlist.InvalidNode, err
			}
		}
		mapped[id] = nid
		return nid, nil
	}
	for _, r := range roots {
		if _, err := emitNode(r); err != nil {
			return nil, err
		}
	}
	return mapped, nil
}

// emitConst realizes a constant output as a gate over the first input
// (x AND NOT x, or its inverse); libraries rarely carry constant cells.
func (m *mapper) emitConst(nl *netlist.Netlist, inputIDs []netlist.NodeID, one bool) (netlist.NodeID, error) {
	if len(inputIDs) == 0 {
		return netlist.InvalidNode, fmt.Errorf("synth: constant output needs at least one input")
	}
	x := inputIDs[0]
	inv := nl.Lib.Inverter()
	nx, err := nl.AddGate("", inv, []netlist.NodeID{x})
	if err != nil {
		return netlist.InvalidNode, err
	}
	var tt logic.TT
	if one {
		tt = logic.TTFromExpr(logic.Or(logic.Var(0), logic.Var(1)), 2)
	} else {
		tt = logic.TTFromExpr(logic.And(logic.Var(0), logic.Var(1)), 2)
	}
	cell := nl.Lib.SmallestMatch(tt)
	if cell == nil {
		return netlist.InvalidNode, fmt.Errorf("synth: library lacks AND2/OR2 for constant realization")
	}
	return nl.AddGate("", cell, []netlist.NodeID{x, nx})
}

// computeRefs counts structural references including output uses. Only
// nodes reachable from the roots count: hash-consed leftovers from
// simplification must not inhibit cone absorption.
func (m *mapper) computeRefs(roots []int32) {
	g := m.g
	m.refs = make([]int, len(g.ops))
	reach := make([]bool, len(g.ops))
	var walk func(id int32)
	walk = func(id int32) {
		if reach[id] {
			return
		}
		reach[id] = true
		for _, f := range g.fanins(id) {
			walk(f)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	for id := int32(1); id < int32(len(g.ops)); id++ {
		if !reach[id] {
			continue
		}
		for _, f := range g.fanins(id) {
			m.refs[f]++
		}
	}
	for _, r := range roots {
		m.refs[r]++
	}
}

// computeProbs estimates per-node signal probabilities with 2048 random
// vectors (only needed for CostPower).
func (m *mapper) computeProbs(seed int64) {
	g := m.g
	const words = 32
	rng := rand.New(rand.NewSource(seed))
	in := make([][]uint64, g.nIn)
	for i := range in {
		in[i] = make([]uint64, words)
		for w := range in[i] {
			in[i][w] = rng.Uint64()
		}
	}
	vals := g.evalWords(in, words)
	m.prob = make([]float64, len(g.ops))
	for id := range vals {
		ones := 0
		for _, w := range vals[id] {
			ones += bits.OnesCount64(w)
		}
		m.prob[id] = float64(ones) / float64(words*64)
	}
}
