package netlist

import (
	"fmt"

	"powder/internal/cellib"
)

// ReplaceFanin rewires pin pin of gate gate to be driven by newDriver,
// maintaining the fanout bookkeeping on both the old and new driver. It
// rejects rewiring that would create a cycle (newDriver must not be in the
// transitive fanout of gate, nor be gate itself).
func (nl *Netlist) ReplaceFanin(gate NodeID, pin int, newDriver NodeID) error {
	g := nl.Node(gate)
	if g.dead || g.kind != KindGate {
		return fmt.Errorf("netlist: ReplaceFanin on non-gate %d", gate)
	}
	if pin < 0 || pin >= len(g.fanins) {
		return fmt.Errorf("netlist: gate %s has no pin %d", g.name, pin)
	}
	nd := nl.Node(newDriver)
	if nd.dead {
		return fmt.Errorf("netlist: new driver %d is dead", newDriver)
	}
	if newDriver == gate || nl.Reaches(gate, newDriver) {
		return fmt.Errorf("netlist: rewiring pin %d of %s to %s would create a cycle",
			pin, g.name, nd.name)
	}
	old := g.fanins[pin]
	if old == newDriver {
		return nil
	}
	nl.removeFanout(old, Branch{Gate: gate, Pin: pin})
	g.fanins[pin] = newDriver
	nd.fanouts = append(nd.fanouts, Branch{Gate: gate, Pin: pin})
	nl.logUndo(func() {
		nl.removeFanout(newDriver, Branch{Gate: gate, Pin: pin})
		g.fanins[pin] = old
		on := nl.Node(old)
		on.fanouts = append(on.fanouts, Branch{Gate: gate, Pin: pin})
	})
	nl.bump()
	return nil
}

// RedirectOutput repoints primary output poIdx to newDriver. Like
// ReplaceFanin it maintains fanout bookkeeping.
func (nl *Netlist) RedirectOutput(poIdx int, newDriver NodeID) error {
	if poIdx < 0 || poIdx >= len(nl.outputs) {
		return fmt.Errorf("netlist: no output %d", poIdx)
	}
	nd := nl.Node(newDriver)
	if nd.dead {
		return fmt.Errorf("netlist: new driver %d is dead", newDriver)
	}
	old := nl.outputs[poIdx].Driver
	if old == newDriver {
		return nil
	}
	nl.removeFanout(old, Branch{Gate: InvalidNode, Pin: poIdx})
	nl.outputs[poIdx].Driver = newDriver
	nd.fanouts = append(nd.fanouts, Branch{Gate: InvalidNode, Pin: poIdx})
	nl.logUndo(func() {
		nl.removeFanout(newDriver, Branch{Gate: InvalidNode, Pin: poIdx})
		nl.outputs[poIdx].Driver = old
		on := nl.Node(old)
		on.fanouts = append(on.fanouts, Branch{Gate: InvalidNode, Pin: poIdx})
	})
	nl.bump()
	return nil
}

// removeFanout deletes one matching branch entry from node id's fanout list.
func (nl *Netlist) removeFanout(id NodeID, b Branch) {
	n := nl.Node(id)
	for i, f := range n.fanouts {
		if f == b {
			n.fanouts = append(n.fanouts[:i], n.fanouts[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("netlist: fanout %v not found on node %s", b, n.name))
}

// ReplaceCell swaps the library cell of a gate for a functionally
// identical cell (same pin count, same truth table, same pin order) —
// the re-sizing primitive. Fanins and fanouts are untouched.
func (nl *Netlist) ReplaceCell(id NodeID, cell *cellib.Cell) error {
	n := nl.Node(id)
	if n.dead || n.kind != KindGate {
		return fmt.Errorf("netlist: ReplaceCell on non-gate %d", id)
	}
	if cell == nil {
		return fmt.Errorf("netlist: nil cell")
	}
	if nl.Lib != nil && nl.Lib.Cell(cell.Name) != cell {
		return fmt.Errorf("netlist: cell %s is not from this netlist's library", cell.Name)
	}
	if cell.NumPins() != n.cell.NumPins() {
		return fmt.Errorf("netlist: cell %s has %d pins, gate %s needs %d",
			cell.Name, cell.NumPins(), n.name, n.cell.NumPins())
	}
	if !cell.TT.Equal(n.cell.TT) {
		return fmt.Errorf("netlist: cell %s computes a different function than %s",
			cell.Name, n.cell.Name)
	}
	if cell == n.cell {
		return nil
	}
	old := n.cell
	n.cell = cell
	nl.logUndo(func() { n.cell = old })
	nl.bump()
	return nil
}

// RemoveGate marks a fanout-free gate dead and detaches it from its fanins.
// Inputs cannot be removed.
func (nl *Netlist) RemoveGate(id NodeID) error {
	n := nl.Node(id)
	if n.kind != KindGate {
		return fmt.Errorf("netlist: cannot remove input %s", n.name)
	}
	if n.dead {
		return nil
	}
	if len(n.fanouts) > 0 {
		return fmt.Errorf("netlist: gate %s still has %d fanouts", n.name, len(n.fanouts))
	}
	for pin, f := range n.fanins {
		nl.removeFanout(f, Branch{Gate: id, Pin: pin})
	}
	n.dead = true
	delete(nl.byName, n.name)
	nl.logUndo(func() {
		n.dead = false
		nl.byName[n.name] = id
		for pin, f := range n.fanins {
			fn := nl.Node(f)
			fn.fanouts = append(fn.fanouts, Branch{Gate: id, Pin: pin})
		}
	})
	nl.bump()
	return nil
}

// SweepDead removes every gate with no fanouts, transitively, and returns
// the IDs of the removed gates. This implements the pruning of the
// dominated region after a substitution (paper Section 3.3, effect A).
func (nl *Netlist) SweepDead() []NodeID {
	var removed []NodeID
	for {
		progress := false
		for _, n := range nl.nodes {
			if n.dead || n.kind != KindGate || len(n.fanouts) > 0 {
				continue
			}
			if err := nl.RemoveGate(n.id); err != nil {
				panic(err) // unreachable: preconditions checked above
			}
			removed = append(removed, n.id)
			progress = true
		}
		if !progress {
			return removed
		}
	}
}
