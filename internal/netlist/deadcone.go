package netlist

import (
	"math"
	"slices"
)

// DeadCones answers "which live gates become fanout-free (and hence are
// swept) if these fanout branches are detached from node a?" — the
// dominated region Dom(a) of the paper when every branch of a is detached.
// Nodes passed as keep are un-killable: pass the substituting signal(s),
// which pick up the detached load and therefore survive even when they
// currently feed only the dominated region.
//
// A query costs time linear in the dead cone and its fanin pins: every
// node touched carries a count of its fanout branches not yet known to
// die, a node dies when its count reaches zero, and its death decrements
// the counts of its fanins. The per-node counters are stamped with a query
// epoch, so a query neither clears nor allocates them. The netlist is not
// modified. A DeadCones is not safe for concurrent use.
type DeadCones struct {
	nl *Netlist
	// refs[id] is valid for the current query iff stamp[id] == epoch: the
	// number of node id's fanout branches still live. Zero means dead.
	stamp []uint32
	refs  []int32
	epoch uint32
	cone  []NodeID
	stack []NodeID
}

// keptRefs marks a kept node: no amount of decrementing reaches zero.
const keptRefs = math.MaxInt32

// NewDeadCones returns a dead-cone oracle over nl. It follows later edits:
// buffers grow when nodes are added.
func NewDeadCones(nl *Netlist) *DeadCones {
	return &DeadCones{nl: nl}
}

// Stem returns the gates that die when every fanout branch of a is
// detached (an OS2/OS3 substitution of stem a), in ascending ID order.
// The slice is reused by the next query.
func (d *DeadCones) Stem(a NodeID, keep ...NodeID) []NodeID {
	return d.query(a, 0, keep)
}

// Branch returns the gates that die when the single fanout branch br is
// detached from a (an IS2/IS3 substitution), in ascending ID order. The
// slice is reused by the next query.
func (d *DeadCones) Branch(a NodeID, br Branch, keep ...NodeID) []NodeID {
	left := 0
	for _, b := range d.nl.Node(a).fanouts {
		if b != br {
			left++
		}
	}
	return d.query(a, left, keep)
}

// Contains reports whether id lies in the cone of the latest query.
func (d *DeadCones) Contains(id NodeID) bool {
	return int(id) < len(d.stamp) && d.stamp[id] == d.epoch && d.refs[id] == 0
}

// query computes the cone of a, given that left of its fanout branches
// stay attached.
func (d *DeadCones) query(a NodeID, left int, keep []NodeID) []NodeID {
	d.begin()
	for _, k := range keep {
		d.stamp[k], d.refs[k] = d.epoch, keptRefs
	}
	if left > 0 || !d.killable(a) {
		return d.cone
	}
	d.stamp[a], d.refs[a] = d.epoch, 0
	d.stack = append(d.stack, a)
	for len(d.stack) > 0 {
		id := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		d.cone = append(d.cone, id)
		// One decrement per pin: a fanin feeding two pins of a dying gate
		// loses two branches.
		for _, f := range d.nl.nodes[id].fanins {
			if !d.killable(f) {
				continue
			}
			if d.stamp[f] != d.epoch {
				d.stamp[f], d.refs[f] = d.epoch, int32(len(d.nl.nodes[f].fanouts))
			}
			if d.refs[f]--; d.refs[f] == 0 {
				d.stack = append(d.stack, f)
			}
		}
	}
	// Callers sum floating-point terms over the cone; a fixed order keeps
	// those sums independent of the traversal.
	slices.Sort(d.cone)
	return d.cone
}

// killable reports whether id is a live gate not kept by this query.
func (d *DeadCones) killable(id NodeID) bool {
	n := d.nl.nodes[id]
	if n.kind != KindGate || n.dead {
		return false
	}
	return d.stamp[id] != d.epoch || d.refs[id] != keptRefs
}

// begin opens a new query epoch, growing the buffers to the netlist.
func (d *DeadCones) begin() {
	if n := len(d.nl.nodes); len(d.stamp) < n {
		d.stamp = append(d.stamp, make([]uint32, n-len(d.stamp))...)
		d.refs = append(d.refs, make([]int32, n-len(d.refs))...)
	}
	d.epoch++
	if d.epoch == 0 {
		// The stamps wrapped: clear them so no stale one matches.
		clear(d.stamp)
		d.epoch = 1
	}
	d.cone = d.cone[:0]
	d.stack = d.stack[:0]
}
