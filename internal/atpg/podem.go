package atpg

import (
	"fmt"

	"powder/internal/logic"
	"powder/internal/netlist"
)

// tri is a ternary logic value.
type tri byte

const (
	t0 tri = iota
	t1
	tX
)

func triOf(b bool) tri {
	if b {
		return t1
	}
	return t0
}

// Fault is a single stuck-at fault: either on a stem signal or on one
// fanout branch (the input wire of a specific gate pin).
type Fault struct {
	// Stem is the driving stem signal.
	Stem netlist.NodeID
	// BranchGate/BranchPin identify a branch fault; BranchGate ==
	// InvalidNode means a stem fault.
	BranchGate netlist.NodeID
	BranchPin  int
	// StuckAt1 selects stuck-at-1 over stuck-at-0.
	StuckAt1 bool
}

// StemFault returns the stuck-at fault on a stem signal.
func StemFault(stem netlist.NodeID, stuckAt1 bool) Fault {
	return Fault{Stem: stem, BranchGate: netlist.InvalidNode, StuckAt1: stuckAt1}
}

// IsBranch reports whether the fault sits on a branch.
func (f Fault) IsBranch() bool { return f.BranchGate != netlist.InvalidNode }

// String renders e.g. "n5/0" or "n5->g7.2/1".
func (f Fault) String() string {
	v := 0
	if f.StuckAt1 {
		v = 1
	}
	if f.IsBranch() {
		return fmt.Sprintf("%d->%d.%d/%d", f.Stem, f.BranchGate, f.BranchPin, v)
	}
	return fmt.Sprintf("%d/%d", f.Stem, v)
}

// AllFaults enumerates every stem fault, plus branch faults for every
// multi-fanout stem (the collapsed fault set commonly used for mapped
// circuits).
func AllFaults(nl *netlist.Netlist) []Fault {
	var out []Fault
	nl.LiveNodes(func(n *netlist.Node) {
		for _, sa1 := range []bool{false, true} {
			out = append(out, StemFault(n.ID(), sa1))
		}
		if n.NumFanouts() > 1 {
			for _, b := range n.Fanouts() {
				if b.IsPO() {
					continue
				}
				for _, sa1 := range []bool{false, true} {
					out = append(out, Fault{Stem: n.ID(), BranchGate: b.Gate, BranchPin: b.Pin, StuckAt1: sa1})
				}
			}
		}
	})
	return out
}

// TestOutcome is the result of PODEM test generation.
type TestOutcome int

const (
	// TestAborted means the backtrack limit was exceeded.
	TestAborted TestOutcome = iota
	// TestFound means a detecting vector exists (returned alongside).
	TestFound
	// Untestable means the fault is provably undetectable (redundant).
	Untestable
)

func (o TestOutcome) String() string {
	switch o {
	case TestFound:
		return "test-found"
	case Untestable:
		return "untestable"
	}
	return "aborted"
}

// podem carries the search state of one test-generation run.
type podem struct {
	nl    *netlist.Netlist
	fault Fault
	order []netlist.NodeID
	good  []tri
	bad   []tri
	// piVal holds the current primary-input assignment (tX = unassigned).
	piVal      []tri
	backtracks int
	limit      int
}

// GenerateTest runs PODEM for the fault with the given backtrack limit
// (<= 0 means a generous default). On TestFound the returned vector holds
// the primary-input values in Inputs() order (unassigned inputs default to
// false).
func GenerateTest(nl *netlist.Netlist, f Fault, limit int) ([]bool, TestOutcome) {
	if limit <= 0 {
		limit = 10000
	}
	p := &podem{
		nl:    nl,
		fault: f,
		order: nl.TopoOrder(),
		good:  make([]tri, nl.NumNodes()),
		bad:   make([]tri, nl.NumNodes()),
		piVal: make([]tri, nl.NumNodes()),
		limit: limit,
	}
	for i := range p.piVal {
		p.piVal[i] = tX
	}

	type decision struct {
		pi      netlist.NodeID
		val     tri
		flipped bool
	}
	var stack []decision

	for iter := 0; ; iter++ {
		p.imply()
		if p.detected() {
			vec := make([]bool, len(nl.Inputs()))
			for i, in := range nl.Inputs() {
				vec[i] = p.piVal[in] == t1
			}
			return vec, TestFound
		}
		if p.consistent() {
			objNode, objVal := p.objective()
			pi, v := p.backtrace(objNode, objVal)
			if p.piVal[pi] != tX {
				// The heuristic backtrace landed on an assigned input
				// (possible around reconvergent faults); fall back to any
				// unassigned input so the search stays exhaustive.
				pi = p.firstUnassignedPI()
				v = t1
			}
			if pi != netlist.InvalidNode {
				stack = append(stack, decision{pi: pi, val: v})
				p.piVal[pi] = v
				continue
			}
			// Fully assigned yet undetected: dead end, fall through to
			// backtracking.
		}
		// Dead end: backtrack.
		for {
			if len(stack) == 0 {
				return nil, Untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				if top.val == t1 {
					top.val = t0
				} else {
					top.val = t1
				}
				p.piVal[top.pi] = top.val
				p.backtracks++
				if p.backtracks > p.limit {
					return nil, TestAborted
				}
				break
			}
			p.piVal[top.pi] = tX
			stack = stack[:len(stack)-1]
		}
	}
}

// firstUnassignedPI returns any unassigned primary input, or InvalidNode.
func (p *podem) firstUnassignedPI() netlist.NodeID {
	for _, in := range p.nl.Inputs() {
		if p.piVal[in] == tX {
			return in
		}
	}
	return netlist.InvalidNode
}

// imply performs full forward 3-valued implication of both circuits.
func (p *podem) imply() {
	for _, id := range p.order {
		n := p.nl.Node(id)
		if n.Kind() == netlist.KindInput {
			p.good[id] = p.piVal[id]
			p.bad[id] = p.piVal[id]
		} else {
			var gIns, bIns [6]tri
			for pin, fn := range n.Fanins() {
				gIns[pin] = p.good[fn]
				bIns[pin] = p.bad[fn]
				if p.fault.IsBranch() && p.fault.BranchGate == id && p.fault.BranchPin == pin {
					bIns[pin] = triOf(p.fault.StuckAt1)
				}
			}
			k := len(n.Fanins())
			p.good[id] = eval3(n.Cell().TT, gIns[:k])
			p.bad[id] = eval3(n.Cell().TT, bIns[:k])
		}
		if !p.fault.IsBranch() && p.fault.Stem == id {
			p.bad[id] = triOf(p.fault.StuckAt1)
		}
	}
}

// detected reports whether some primary output carries a D value.
func (p *podem) detected() bool {
	for _, po := range p.nl.Outputs() {
		g, b := p.good[po.Driver], p.bad[po.Driver]
		if g != tX && b != tX && g != b {
			return true
		}
	}
	return false
}

// consistent reports whether the current partial assignment can still lead
// to a test: the fault is excitable and a D can still reach an output.
func (p *podem) consistent() bool {
	stuck := triOf(p.fault.StuckAt1)
	gs := p.good[p.fault.Stem]
	if gs == stuck {
		return false // fault can no longer be excited
	}
	if gs == tX {
		return true // excitation still open; objective will pursue it
	}
	// Excited: need a PO with D (handled in detected) or a D-frontier gate
	// with an X-path to an output.
	frontier := p.dFrontier()
	if len(frontier) == 0 {
		return false
	}
	return p.xPathToPO(frontier)
}

// dValueAtPin returns the (good, bad) pair seen by pin pin of gate id.
func (p *podem) dValueAtPin(id netlist.NodeID, pin int) (tri, tri) {
	fn := p.nl.Node(id).Fanins()[pin]
	g, b := p.good[fn], p.bad[fn]
	if p.fault.IsBranch() && p.fault.BranchGate == id && p.fault.BranchPin == pin {
		b = triOf(p.fault.StuckAt1)
	}
	return g, b
}

// dFrontier returns the gates that see a D on some input but do not yet
// produce a binary-differing output.
func (p *podem) dFrontier() []netlist.NodeID {
	var out []netlist.NodeID
	for _, id := range p.order {
		n := p.nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		og, ob := p.good[id], p.bad[id]
		if og != tX && ob != tX && og != ob {
			continue // already producing D
		}
		if og != tX && ob != tX && og == ob {
			continue // output fixed equal; cannot become D
		}
		for pin := range n.Fanins() {
			g, b := p.dValueAtPin(id, pin)
			if g != tX && b != tX && g != b {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// xPathToPO reports whether some frontier gate reaches a primary output
// through gates whose output is still X in either circuit.
func (p *podem) xPathToPO(frontier []netlist.NodeID) bool {
	seen := make(map[netlist.NodeID]bool)
	var walk func(id netlist.NodeID) bool
	walk = func(id netlist.NodeID) bool {
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, b := range p.nl.Node(id).Fanouts() {
			if b.IsPO() {
				return true
			}
			g := b.Gate
			if p.good[g] == tX || p.bad[g] == tX {
				if walk(g) {
					return true
				}
			}
		}
		return false
	}
	for _, f := range frontier {
		if p.nl.IsPODriver(f) {
			return true
		}
		if walk(f) {
			return true
		}
	}
	return false
}

// objective picks the next signal/value goal: excite the fault, or advance
// the D-frontier.
func (p *podem) objective() (netlist.NodeID, tri) {
	stuck := triOf(p.fault.StuckAt1)
	if p.good[p.fault.Stem] == tX {
		if stuck == t0 {
			return p.fault.Stem, t1
		}
		return p.fault.Stem, t0
	}
	frontier := p.dFrontier()
	g := frontier[0]
	n := p.nl.Node(g)
	// Find an X input pin and a value for it under which the gate can
	// still propagate the difference.
	for pin := range n.Fanins() {
		pg, _ := p.dValueAtPin(g, pin)
		if pg != tX {
			continue
		}
		for _, u := range []tri{t1, t0} {
			if p.pinValueCanPropagate(g, pin, u) {
				fn := n.Fanins()[pin]
				return fn, u
			}
		}
	}
	// Fallback: drive the first X input high; backtracking cleans up.
	for pin, fn := range n.Fanins() {
		pg, _ := p.dValueAtPin(g, pin)
		if pg == tX {
			return fn, t1
		}
	}
	// Unreachable if the frontier invariant holds, but keep a safe default.
	return n.Fanins()[0], t1
}

// pinValueCanPropagate checks whether fixing the given X pin to u leaves a
// completion of the remaining X pins under which the gate's good and bad
// outputs differ.
func (p *podem) pinValueCanPropagate(g netlist.NodeID, pin int, u tri) bool {
	n := p.nl.Node(g)
	k := len(n.Fanins())
	var gIns, bIns [6]tri
	for i := 0; i < k; i++ {
		gIns[i], bIns[i] = p.dValueAtPin(g, i)
	}
	gIns[pin], bIns[pin] = u, u
	tt := n.Cell().TT
	// Enumerate completions of remaining X pins jointly (same completion in
	// good and bad circuit: unassigned pins carry no fault).
	var xPins []int
	for i := 0; i < k; i++ {
		if gIns[i] == tX || bIns[i] == tX {
			xPins = append(xPins, i)
		}
	}
	for m := 0; m < 1<<uint(len(xPins)); m++ {
		var gm, bm uint
		for i := 0; i < k; i++ {
			gv, bv := gIns[i], bIns[i]
			for xi, xp := range xPins {
				if xp == i {
					v := triOf(m>>uint(xi)&1 == 1)
					if gv == tX {
						gv = v
					}
					if bv == tX {
						bv = v
					}
				}
			}
			if gv == t1 {
				gm |= 1 << uint(i)
			}
			if bv == t1 {
				bm |= 1 << uint(i)
			}
		}
		if tt.Eval(gm) != tt.Eval(bm) {
			return true
		}
	}
	return false
}

// backtrace walks an objective back to an unassigned primary input.
func (p *podem) backtrace(node netlist.NodeID, val tri) (netlist.NodeID, tri) {
	for {
		n := p.nl.Node(node)
		if n.Kind() == netlist.KindInput {
			return node, val
		}
		tt := n.Cell().TT
		k := len(n.Fanins())
		var ins [6]tri
		for pin, fn := range n.Fanins() {
			ins[pin] = p.good[fn]
		}
		// Find a completion of the X inputs that yields the desired output
		// value, then descend into the first X pin with that completion's
		// value.
		var xPins []int
		for i := 0; i < k; i++ {
			if ins[i] == tX {
				xPins = append(xPins, i)
			}
		}
		if len(xPins) == 0 {
			// Output already determined; objective unachievable here. The
			// caller's implication step will expose the conflict.
			return p.nl.Inputs()[0], val
		}
		found := false
		for m := 0; m < 1<<uint(len(xPins)) && !found; m++ {
			var minterm uint
			for i := 0; i < k; i++ {
				v := ins[i]
				for xi, xp := range xPins {
					if xp == i {
						v = triOf(m>>uint(xi)&1 == 1)
					}
				}
				if v == t1 {
					minterm |= 1 << uint(i)
				}
			}
			if triOf(tt.Eval(minterm)) == val {
				pin := xPins[0]
				node = n.Fanins()[pin]
				val = triOf(minterm>>uint(pin)&1 == 1)
				found = true
			}
		}
		if !found {
			// No completion achieves the objective through this gate; pick
			// any X pin to make progress and let backtracking recover.
			pin := xPins[0]
			node = n.Fanins()[pin]
			val = t1
		}
	}
}

// eval3 evaluates the truth table on ternary inputs: the result is binary
// when all completions of the X inputs agree.
func eval3(tt logic.TT, ins []tri) tri {
	var xPins []int
	var base uint
	for i, v := range ins {
		switch v {
		case t1:
			base |= 1 << uint(i)
		case tX:
			xPins = append(xPins, i)
		}
	}
	if len(xPins) == 0 {
		return triOf(tt.Eval(base))
	}
	first := tt.Eval(base)
	for m := 1; m < 1<<uint(len(xPins)); m++ {
		cur := base
		for xi, xp := range xPins {
			if m>>uint(xi)&1 == 1 {
				cur |= 1 << uint(xp)
			}
		}
		if tt.Eval(cur) != first {
			return tX
		}
	}
	return triOf(first)
}
