// Package netlist models technology-mapped combinational circuits: a DAG of
// library-cell instances between primary inputs and primary outputs.
//
// Terminology follows the paper: the output signal of a gate is its *stem*
// signal; each connection of that signal to a fanout pin is a *branch*
// signal, identified by the (gate, pin) pair it feeds. Primary outputs are
// named sinks attached to a driver node and are treated as perfectly
// observable fanout branches.
//
// Nodes are never physically deleted; removal marks them dead and detaches
// them, so NodeIDs held by callers stay valid (dead nodes report
// themselves via Node.Dead).
package netlist

import (
	"fmt"

	"powder/internal/cellib"
)

// NodeID identifies a node within one Netlist. The zero netlist has no
// nodes, so any NodeID must come from the netlist it is used with.
type NodeID int

// InvalidNode is the NodeID returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Kind discriminates the node types.
type Kind int

const (
	// KindInput is a primary input.
	KindInput Kind = iota
	// KindGate is a library-cell instance.
	KindGate
)

// Branch identifies one fanout connection: pin Pin of gate Gate.
// A primary-output sink is encoded with Gate == InvalidNode and Pin holding
// the PO index.
type Branch struct {
	Gate NodeID
	Pin  int
}

// IsPO reports whether the branch is a primary-output sink.
func (b Branch) IsPO() bool { return b.Gate == InvalidNode }

// Node is one vertex of the netlist DAG.
type Node struct {
	id      NodeID
	kind    Kind
	name    string
	cell    *cellib.Cell // nil for inputs
	fanins  []NodeID     // one per cell pin, in pin order
	fanouts []Branch
	dead    bool
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Name returns the node's (unique) name; it also names the stem signal.
func (n *Node) Name() string { return n.name }

// Cell returns the library cell, or nil for a primary input.
func (n *Node) Cell() *cellib.Cell { return n.cell }

// Fanins returns the fanin node per pin. The slice must not be mutated.
func (n *Node) Fanins() []NodeID { return n.fanins }

// Fanouts returns the fanout branches (including PO sinks). The slice must
// not be mutated.
func (n *Node) Fanouts() []Branch { return n.fanouts }

// NumFanouts returns the number of fanout branches including PO sinks.
func (n *Node) NumFanouts() int { return len(n.fanouts) }

// Dead reports whether the node has been removed from the circuit.
func (n *Node) Dead() bool { return n.dead }

// IsInput reports whether the node is a primary input.
func (n *Node) IsInput() bool { return n.kind == KindInput }

// PO is a primary output: a named sink attached to a driver node.
type PO struct {
	Name   string
	Driver NodeID
}

// Netlist is a mutable mapped circuit.
type Netlist struct {
	Name string
	Lib  *cellib.Library
	// POLoad is the capacitive load each primary output presents to its
	// driver (pad/external load). The default is 1 capacitance unit.
	POLoad float64

	nodes   []*Node
	inputs  []NodeID
	outputs []PO
	byName  map[string]NodeID
	version int64
	txn     *Txn // active edit transaction, nil outside Begin/Commit

	// topoOrder and topoPos cache Topo for structure version topoVersion.
	topoOrder   []NodeID
	topoPos     []int
	topoVersion int64

	// Scratch state for allocation-free reachability queries.
	visitMark  []int64
	visitEpoch int64
	visitStack []NodeID
}

// New returns an empty netlist over the given library.
func New(name string, lib *cellib.Library) *Netlist {
	return &Netlist{Name: name, Lib: lib, POLoad: 1.0, byName: make(map[string]NodeID)}
}

// Version returns a counter that increments on every structural mutation;
// callers use it to invalidate derived caches.
func (nl *Netlist) Version() int64 { return nl.version }

func (nl *Netlist) bump() { nl.version++ }

// NumNodes returns the length of the node table including dead nodes; valid
// NodeIDs are 0..NumNodes()-1.
func (nl *Netlist) NumNodes() int { return len(nl.nodes) }

// Node returns the node with the given ID; it panics on out-of-range IDs.
func (nl *Netlist) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(nl.nodes) {
		panic(fmt.Sprintf("netlist: node %d out of range [0,%d)", id, len(nl.nodes)))
	}
	return nl.nodes[id]
}

// Inputs returns the primary-input node IDs in declaration order.
func (nl *Netlist) Inputs() []NodeID { return nl.inputs }

// Outputs returns the primary outputs in declaration order.
func (nl *Netlist) Outputs() []PO { return nl.outputs }

// FindNode returns the node with the given name, or InvalidNode.
func (nl *Netlist) FindNode(name string) NodeID {
	if id, ok := nl.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// AddInput creates a primary input with the given name.
func (nl *Netlist) AddInput(name string) (NodeID, error) {
	if name == "" {
		return InvalidNode, fmt.Errorf("netlist: input needs a name")
	}
	if _, dup := nl.byName[name]; dup {
		return InvalidNode, fmt.Errorf("netlist: duplicate node name %q", name)
	}
	id := NodeID(len(nl.nodes))
	n := &Node{id: id, kind: KindInput, name: name}
	nl.nodes = append(nl.nodes, n)
	nl.inputs = append(nl.inputs, id)
	nl.byName[name] = id
	nl.logUndo(func() {
		delete(nl.byName, name)
		nl.inputs = nl.inputs[:len(nl.inputs)-1]
		nl.nodes = nl.nodes[:id]
	})
	nl.bump()
	return id, nil
}

// AddGate creates a gate instance of cell with the given fanins (one per
// pin, in pin order). An empty name auto-generates a unique one.
func (nl *Netlist) AddGate(name string, cell *cellib.Cell, fanins []NodeID) (NodeID, error) {
	if cell == nil {
		return InvalidNode, fmt.Errorf("netlist: nil cell")
	}
	if nl.Lib != nil && nl.Lib.Cell(cell.Name) != cell {
		return InvalidNode, fmt.Errorf("netlist: cell %s is not from this netlist's library", cell.Name)
	}
	if len(fanins) != cell.NumPins() {
		return InvalidNode, fmt.Errorf("netlist: cell %s needs %d fanins, got %d",
			cell.Name, cell.NumPins(), len(fanins))
	}
	for _, f := range fanins {
		if f < 0 || int(f) >= len(nl.nodes) || nl.nodes[f].dead {
			return InvalidNode, fmt.Errorf("netlist: bad fanin %d for gate %q", f, name)
		}
	}
	if name == "" {
		name = nl.freshName()
	}
	if _, dup := nl.byName[name]; dup {
		return InvalidNode, fmt.Errorf("netlist: duplicate node name %q", name)
	}
	id := NodeID(len(nl.nodes))
	n := &Node{id: id, kind: KindGate, name: name, cell: cell, fanins: append([]NodeID(nil), fanins...)}
	nl.nodes = append(nl.nodes, n)
	nl.byName[name] = id
	for pin, f := range fanins {
		fn := nl.nodes[f]
		fn.fanouts = append(fn.fanouts, Branch{Gate: id, Pin: pin})
	}
	nl.logUndo(func() {
		for pin, f := range n.fanins {
			nl.removeFanout(f, Branch{Gate: id, Pin: pin})
		}
		delete(nl.byName, name)
		nl.nodes = nl.nodes[:id]
	})
	nl.bump()
	return id, nil
}

// freshName generates a gate name not yet in use.
func (nl *Netlist) freshName() string {
	for i := len(nl.nodes); ; i++ {
		name := fmt.Sprintf("n%d", i)
		if _, dup := nl.byName[name]; !dup {
			return name
		}
	}
}

// AddOutput declares a primary output named name driven by driver.
func (nl *Netlist) AddOutput(name string, driver NodeID) error {
	if name == "" {
		return fmt.Errorf("netlist: output needs a name")
	}
	if driver < 0 || int(driver) >= len(nl.nodes) || nl.nodes[driver].dead {
		return fmt.Errorf("netlist: bad driver %d for output %q", driver, name)
	}
	for _, po := range nl.outputs {
		if po.Name == name {
			return fmt.Errorf("netlist: duplicate output name %q", name)
		}
	}
	idx := len(nl.outputs)
	nl.outputs = append(nl.outputs, PO{Name: name, Driver: driver})
	d := nl.nodes[driver]
	d.fanouts = append(d.fanouts, Branch{Gate: InvalidNode, Pin: idx})
	nl.logUndo(func() {
		nl.removeFanout(driver, Branch{Gate: InvalidNode, Pin: idx})
		nl.outputs = nl.outputs[:idx]
	})
	nl.bump()
	return nil
}

// IsPODriver reports whether the node directly drives at least one primary
// output.
func (nl *Netlist) IsPODriver(id NodeID) bool {
	for _, b := range nl.Node(id).fanouts {
		if b.IsPO() {
			return true
		}
	}
	return false
}

// GateCount returns the number of live gates (inputs excluded).
func (nl *Netlist) GateCount() int {
	n := 0
	for _, nd := range nl.nodes {
		if !nd.dead && nd.kind == KindGate {
			n++
		}
	}
	return n
}

// Area returns the total cell area of the live gates.
func (nl *Netlist) Area() float64 {
	a := 0.0
	for _, nd := range nl.nodes {
		if !nd.dead && nd.kind == KindGate {
			a += nd.cell.Area
		}
	}
	return a
}

// Load returns the total capacitive load on the node's stem signal: the sum
// of the input capacitances of the pins it drives plus POLoad per primary
// output it feeds.
func (nl *Netlist) Load(id NodeID) float64 {
	c := 0.0
	for _, b := range nl.Node(id).fanouts {
		if b.IsPO() {
			c += nl.POLoad
		} else {
			c += nl.nodes[b.Gate].cell.Pins[b.Pin].Cap
		}
	}
	return c
}

// BranchCap returns the capacitance of a single fanout branch.
func (nl *Netlist) BranchCap(b Branch) float64 {
	if b.IsPO() {
		return nl.POLoad
	}
	return nl.Node(b.Gate).cell.Pins[b.Pin].Cap
}

// LiveNodes calls f for every live node in ID order.
func (nl *Netlist) LiveNodes(f func(*Node)) {
	for _, nd := range nl.nodes {
		if !nd.dead {
			f(nd)
		}
	}
}
