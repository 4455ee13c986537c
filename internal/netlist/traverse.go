package netlist

import "fmt"

// TopoOrder returns all live node IDs in a topological order: every node
// appears after all of its fanins. Primary inputs come first. It panics if
// the netlist contains a cycle (Validate reports cycles as errors instead).
func (nl *Netlist) TopoOrder() []NodeID {
	order := make([]NodeID, 0, len(nl.nodes))
	state := make([]byte, len(nl.nodes)) // 0 unvisited, 1 on stack, 2 done
	var visit func(id NodeID)
	visit = func(id NodeID) {
		switch state[id] {
		case 1:
			panic(fmt.Sprintf("netlist: cycle through node %s", nl.nodes[id].name))
		case 2:
			return
		}
		state[id] = 1
		for _, f := range nl.nodes[id].fanins {
			visit(f)
		}
		state[id] = 2
		order = append(order, id)
	}
	for _, n := range nl.nodes {
		if !n.dead {
			visit(n.id)
		}
	}
	return order
}

// Topo returns TopoOrder and each node's position in it (-1 for dead
// nodes), indexed by NodeID. Both are cached until the next structural
// mutation, so the netlist's simulators and its reachability queries
// share one order per Version. The slices belong to the netlist and must
// not be mutated; a later mutation makes Topo allocate new ones, so
// slices returned earlier stay as they were. Like Reaches, Topo writes
// netlist state and must not run concurrently with other calls.
func (nl *Netlist) Topo() (order []NodeID, pos []int) {
	if !nl.topoCurrent() {
		order = nl.TopoOrder()
		pos = make([]int, len(nl.nodes))
		for i := range pos {
			pos[i] = -1
		}
		for i, id := range order {
			pos[id] = i
		}
		nl.topoOrder, nl.topoPos, nl.topoVersion = order, pos, nl.version
	}
	return nl.topoOrder, nl.topoPos
}

// topoCurrent reports whether the cached topological order is the
// current structure's.
func (nl *Netlist) topoCurrent() bool {
	return nl.topoPos != nil && nl.topoVersion == nl.version
}

// Reaches reports whether there is a directed path from src to dst
// (src == dst counts as reaching). While Topo's order is cached for the
// current structure, a dst that precedes src in it answers false at
// once, and the search skips every gate placed after dst. It reuses an
// epoch-stamped visit array, so repeated queries allocate nothing; the
// netlist is not safe for concurrent use anyway.
func (nl *Netlist) Reaches(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	var pos []int
	if nl.topoCurrent() {
		pos = nl.topoPos
		if pos[dst] < pos[src] {
			return false
		}
	}
	nl.visitEpoch++
	if len(nl.visitMark) < len(nl.nodes) {
		nl.visitMark = make([]int64, len(nl.nodes))
		nl.visitEpoch = 1
	}
	stack := nl.visitStack[:0]
	stack = append(stack, src)
	nl.visitMark[src] = nl.visitEpoch
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, b := range nl.nodes[id].fanouts {
			if b.IsPO() {
				continue
			}
			if b.Gate == dst {
				nl.visitStack = stack
				return true
			}
			if nl.visitMark[b.Gate] != nl.visitEpoch && (pos == nil || pos[b.Gate] < pos[dst]) {
				nl.visitMark[b.Gate] = nl.visitEpoch
				stack = append(stack, b.Gate)
			}
		}
	}
	nl.visitStack = stack
	return false
}

// TFO returns the set of live gates in the transitive fanout of id,
// excluding id itself.
func (nl *Netlist) TFO(id NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	var walk func(id NodeID)
	walk = func(id NodeID) {
		for _, b := range nl.nodes[id].fanouts {
			if b.IsPO() || out[b.Gate] {
				continue
			}
			out[b.Gate] = true
			walk(b.Gate)
		}
	}
	walk(id)
	return out
}

// MarkTFO sets mark[x] for every gate x in the transitive fanout of id
// (excluding id) and returns the marked IDs; the allocation-free variant
// of TFO for hot paths. mark must have at least NumNodes entries and be
// false at the touched positions (clear via the returned list).
func (nl *Netlist) MarkTFO(id NodeID, mark []bool) []NodeID {
	var touched []NodeID
	stack := nl.visitStack[:0]
	stack = append(stack, id)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, b := range nl.nodes[cur].fanouts {
			if b.IsPO() || mark[b.Gate] {
				continue
			}
			mark[b.Gate] = true
			touched = append(touched, b.Gate)
			stack = append(stack, b.Gate)
		}
	}
	nl.visitStack = stack
	return touched
}

// TFI returns the set of live nodes in the transitive fanin of id,
// excluding id itself (primary inputs included).
func (nl *Netlist) TFI(id NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	var walk func(id NodeID)
	walk = func(id NodeID) {
		for _, f := range nl.nodes[id].fanins {
			if out[f] {
				continue
			}
			out[f] = true
			walk(f)
		}
	}
	walk(id)
	return out
}

// Levels returns, for every live node, its logic level: inputs are level 0
// and a gate's level is 1 + max level of its fanins. Dead nodes get -1.
func (nl *Netlist) Levels() []int {
	lv := make([]int, len(nl.nodes))
	for i := range lv {
		lv[i] = -1
	}
	for _, id := range nl.TopoOrder() {
		n := nl.nodes[id]
		if n.kind == KindInput {
			lv[id] = 0
			continue
		}
		max := 0
		for _, f := range n.fanins {
			if lv[f] >= max {
				max = lv[f] + 1
			}
		}
		lv[id] = max
	}
	return lv
}

// Validate checks structural invariants: unique live names, live fanins with
// correct pin counts, consistent fanin/fanout cross-references, live PO
// drivers, and acyclicity. It returns the first violation found.
func (nl *Netlist) Validate() error {
	names := make(map[string]NodeID)
	for _, n := range nl.nodes {
		if n.dead {
			continue
		}
		if prev, dup := names[n.name]; dup {
			return fmt.Errorf("netlist: name %q used by nodes %d and %d", n.name, prev, n.id)
		}
		names[n.name] = n.id
		if got := nl.byName[n.name]; got != n.id {
			return fmt.Errorf("netlist: byName[%q] = %d, want %d", n.name, got, n.id)
		}
		switch n.kind {
		case KindInput:
			if len(n.fanins) != 0 {
				return fmt.Errorf("netlist: input %s has fanins", n.name)
			}
		case KindGate:
			if n.cell == nil {
				return fmt.Errorf("netlist: gate %s has no cell", n.name)
			}
			if len(n.fanins) != n.cell.NumPins() {
				return fmt.Errorf("netlist: gate %s has %d fanins for %d-pin cell %s",
					n.name, len(n.fanins), n.cell.NumPins(), n.cell.Name)
			}
			for pin, f := range n.fanins {
				if f < 0 || int(f) >= len(nl.nodes) || nl.nodes[f].dead {
					return fmt.Errorf("netlist: gate %s pin %d has dead fanin %d", n.name, pin, f)
				}
				// The fanin must list this branch exactly once.
				count := 0
				for _, b := range nl.nodes[f].fanouts {
					if b.Gate == n.id && b.Pin == pin {
						count++
					}
				}
				if count != 1 {
					return fmt.Errorf("netlist: fanout cross-reference of %s pin %d broken (count %d)",
						n.name, pin, count)
				}
			}
		}
		// Every fanout branch must point back at us.
		for _, b := range n.fanouts {
			if b.IsPO() {
				if b.Pin < 0 || b.Pin >= len(nl.outputs) || nl.outputs[b.Pin].Driver != n.id {
					return fmt.Errorf("netlist: node %s claims PO %d it does not drive", n.name, b.Pin)
				}
				continue
			}
			g := nl.Node(b.Gate)
			if g.dead || b.Pin < 0 || b.Pin >= len(g.fanins) || g.fanins[b.Pin] != n.id {
				return fmt.Errorf("netlist: node %s has stale fanout %v", n.name, b)
			}
		}
	}
	for i, po := range nl.outputs {
		if po.Driver < 0 || int(po.Driver) >= len(nl.nodes) || nl.nodes[po.Driver].dead {
			return fmt.Errorf("netlist: output %s (index %d) has dead driver", po.Name, i)
		}
	}
	// Acyclicity via iterative DFS (TopoOrder panics on cycles).
	if err := nl.checkAcyclic(); err != nil {
		return err
	}
	return nil
}

func (nl *Netlist) checkAcyclic() error {
	state := make([]byte, len(nl.nodes))
	var visit func(id NodeID) error
	visit = func(id NodeID) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("netlist: cycle through node %s", nl.nodes[id].name)
		case 2:
			return nil
		}
		state[id] = 1
		for _, f := range nl.nodes[id].fanins {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[id] = 2
		return nil
	}
	for _, n := range nl.nodes {
		if !n.dead {
			if err := visit(n.id); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the netlist (sharing the immutable library
// and cells). Node IDs are preserved, including dead slots.
func (nl *Netlist) Clone() *Netlist {
	cp := &Netlist{
		Name:    nl.Name,
		Lib:     nl.Lib,
		POLoad:  nl.POLoad,
		nodes:   make([]*Node, len(nl.nodes)),
		inputs:  append([]NodeID(nil), nl.inputs...),
		outputs: append([]PO(nil), nl.outputs...),
		byName:  make(map[string]NodeID, len(nl.byName)),
		version: nl.version,
	}
	for i, n := range nl.nodes {
		cp.nodes[i] = &Node{
			id:      n.id,
			kind:    n.kind,
			name:    n.name,
			cell:    n.cell,
			fanins:  append([]NodeID(nil), n.fanins...),
			fanouts: append([]Branch(nil), n.fanouts...),
			dead:    n.dead,
		}
	}
	for k, v := range nl.byName {
		cp.byName[k] = v
	}
	return cp
}
