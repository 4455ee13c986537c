package sta

import (
	"powder/internal/cellib"
	"powder/internal/netlist"
)

// Edit is a pending edit of the analyzed netlist in the shape every
// substitution takes (transform.Apply makes it, DelayAfter times it):
// Insert, when non-nil, is first added as a gate driven by In, pin by
// pin; then each branch of Moved, in order, is detached from the node
// driving it and attached to Source, or to the inserted gate; then every
// gate left without fanout is swept, transitively, as netlist.SweepDead
// does. Moved holds distinct branches: one branch, or the fanout branches
// of one node.
type Edit struct {
	Insert *cellib.Cell
	In     []netlist.NodeID
	Source netlist.NodeID
	Moved  []netlist.Branch
}

// DelayAfter returns the circuit delay the analyzed netlist would have
// after the edit, bit for bit what New would compute on the edited
// netlist, without making the edit. ok is false, and the delay
// meaningless, exactly when the netlist's editing primitives would refuse
// the edit: a dead or missing node, a pin out of range, or a cycle.
//
// It works at the cost of what the edit changes. It re-sums the load of
// the nodes whose fanout lists change, in the order the edit leaves them
// (kept branches in place, appended ones last), takes the sweep's dead
// cone (gates that already had no fanout included), and re-derives
// arrivals forward from the changed gates only as far as they change.
// Its scratch stays with the analysis, so only the first call allocates.
// The netlist must not have changed since New.
func (a *Analysis) DelayAfter(e *Edit) (delay float64, ok bool) {
	if a.nl.Version() != a.version {
		panic("sta: DelayAfter on an analysis of an edited netlist")
	}
	q := query{a: a, w: a.scratch(), e: *e, ins: netlist.InvalidNode}
	q.w.begin()
	if !q.move() {
		return 0, false
	}
	q.sweep()
	q.retime()
	for i, po := range a.nl.Outputs() {
		d := po.Driver
		if q.w.poMoved[i] == q.w.epoch {
			d = q.src
		}
		if v := q.arrival(d); v > delay {
			delay = v
		}
	}
	return delay, true
}

// Per-node flags of one DelayAfter query.
const (
	// wLoad: the node's fanout list changes, so its load and delay are
	// re-derived.
	wLoad uint8 = 1 << iota
	// wDead: the sweep removes the node.
	wDead
	// wArr: arr holds the node's post-edit arrival.
	wArr
	// wHeap: the node is queued for re-derivation.
	wHeap
)

// whatIf is DelayAfter's scratch. It has one slot per node plus one for
// the inserted gate, whose ID would be NumNodes; a slot's entries belong
// to the current query when its stamp equals the epoch.
type whatIf struct {
	epoch uint32
	stamp []uint32
	flags []uint8
	// moved masks the pins of a gate the edit re-drives.
	moved []uint8
	// fanouts counts a node's fanout branches after the edit, less those
	// of gates found dead so far.
	fanouts []int32
	// delay is the post-edit gate delay of the nodes flagged wLoad, arr
	// the post-edit arrival of those flagged wArr.
	delay, arr []float64
	// pos is each live node's place in the analysis's topological order,
	// the re-derivation's priority.
	pos []int32
	// poMoved stamps the primary outputs the edit redirects.
	poMoved []uint32
	// touched lists the nodes flagged wLoad; stack and heap are work
	// lists.
	touched, stack, heap []netlist.NodeID
}

// scratch returns the analysis's what-if scratch, allocating it on the
// first call.
func (a *Analysis) scratch() *whatIf {
	if a.w == nil {
		n := a.nl.NumNodes() + 1
		w := &whatIf{
			stamp:   make([]uint32, n),
			flags:   make([]uint8, n),
			moved:   make([]uint8, n),
			fanouts: make([]int32, n),
			delay:   make([]float64, n),
			arr:     make([]float64, n),
			pos:     make([]int32, n),
			poMoved: make([]uint32, len(a.nl.Outputs())),
		}
		for i, id := range a.order {
			w.pos[id] = int32(i)
		}
		a.w = w
	}
	return a.w
}

// begin opens a new query epoch.
func (w *whatIf) begin() {
	w.epoch++
	if w.epoch == 0 {
		// The stamps wrapped: clear them so no stale one matches.
		clear(w.stamp)
		clear(w.poMoved)
		w.epoch = 1
	}
	w.touched = w.touched[:0]
	w.heap = w.heap[:0]
}

// query is the state of one DelayAfter call. It holds a copy of the
// edit: escape analysis does not tell a struct's fields apart, so a
// pointer to the caller's edit would make every write of the scratch
// look like a leak of the edit's slices.
type query struct {
	a *Analysis
	w *whatIf
	e Edit
	// src is the node driving the moved branches after the edit: Source,
	// or ins when the edit inserts a gate.
	src netlist.NodeID
	// ins is the inserted gate's ID, NumNodes, or InvalidNode.
	ins netlist.NodeID
	// moves counts the moved branches whose driver changes.
	moves int
}

// visit makes id's slot belong to the current query, its fanout count
// the current one.
func (q *query) visit(id netlist.NodeID) {
	w := q.w
	if w.stamp[id] == w.epoch {
		return
	}
	w.stamp[id], w.flags[id], w.moved[id] = w.epoch, 0, 0
	w.fanouts[id] = 0
	if id != q.ins {
		w.fanouts[id] = int32(q.a.nl.Node(id).NumFanouts())
	}
}

// has reports whether id carries flag f in the current query.
func (q *query) has(id netlist.NodeID, f uint8) bool {
	return q.w.stamp[id] == q.w.epoch && q.w.flags[id]&f != 0
}

// count adds d to id's fanout count and flags its load for re-derivation.
func (q *query) count(id netlist.NodeID, d int32) {
	q.visit(id)
	w := q.w
	w.fanouts[id] += d
	if w.flags[id]&wLoad == 0 {
		w.flags[id] |= wLoad
		w.touched = append(w.touched, id)
	}
}

// move runs the checks of the editing primitives (AddGate, then
// RedirectOutput or ReplaceFanin per moved branch) and records the
// moves. It reports whether the edit can be made.
func (q *query) move() bool {
	nl, e, w := q.a.nl, &q.e, q.w
	n := netlist.NodeID(nl.NumNodes())
	live := func(id netlist.NodeID) bool { return id >= 0 && id < n && !nl.Node(id).Dead() }
	q.src = e.Source
	if e.Insert != nil {
		if nl.Lib != nil && nl.Lib.Cell(e.Insert.Name) != e.Insert || len(e.In) != e.Insert.NumPins() {
			return false
		}
		for _, f := range e.In {
			if !live(f) {
				return false
			}
		}
		q.ins, q.src = n, n
		q.visit(n)
		for _, f := range e.In {
			q.count(f, 1)
		}
	}
	for _, b := range e.Moved {
		var old netlist.NodeID
		if b.IsPO() {
			if b.Pin < 0 || b.Pin >= len(nl.Outputs()) {
				return false
			}
			old = nl.Outputs()[b.Pin].Driver
		} else {
			if b.Gate < 0 || b.Gate >= n {
				return false
			}
			g := nl.Node(b.Gate)
			if g.Dead() || g.Kind() != netlist.KindGate || b.Pin < 0 || b.Pin >= len(g.Fanins()) || b.Gate == q.src {
				return false
			}
			old = g.Fanins()[b.Pin]
		}
		if q.src != q.ins && !live(q.src) {
			return false
		}
		if old == q.src {
			continue // the primitives leave it alone
		}
		q.moves++
		q.count(old, -1)
		q.count(q.src, 1)
		if b.IsPO() {
			w.poMoved[b.Pin] = w.epoch
		} else {
			q.visit(b.Gate)
			w.moved[b.Gate] |= 1 << b.Pin
		}
	}
	return q.moves == 0 || !q.cycle()
}

// cycle reports whether a re-driven gate reaches the source, or an input
// of the inserted gate: the cycle ReplaceFanin refuses. The moves before
// a branch's own cannot add such a path, since every path they create
// starts at the source, so the netlist as it is answers.
func (q *query) cycle() bool {
	nl, e := q.a.nl, &q.e
	for _, b := range e.Moved {
		if b.IsPO() || !q.isMoved(b) {
			continue
		}
		if q.ins == netlist.InvalidNode {
			if nl.Reaches(b.Gate, q.src) {
				return true
			}
			continue
		}
		for _, f := range e.In {
			if nl.Reaches(b.Gate, f) {
				return true
			}
		}
	}
	return false
}

// isMoved reports whether branch b, as the netlist has it now, changes
// driver in the edit.
func (q *query) isMoved(b netlist.Branch) bool {
	if b.IsPO() {
		return q.w.poMoved[b.Pin] == q.w.epoch
	}
	return q.w.stamp[b.Gate] == q.w.epoch && q.w.moved[b.Gate]&(1<<b.Pin) != 0
}

// fanin returns pin p's driver of gate id after the edit.
func (q *query) fanin(id netlist.NodeID, p int) netlist.NodeID {
	if id == q.ins {
		return q.e.In[p]
	}
	if q.isMoved(netlist.Branch{Gate: id, Pin: p}) {
		return q.src
	}
	return q.a.nl.Node(id).Fanins()[p]
}

// pins returns the pin count of gate id.
func (q *query) pins(id netlist.NodeID) int {
	if id == q.ins {
		return len(q.e.In)
	}
	return len(q.a.nl.Node(id).Fanins())
}

// isGate reports whether id is a live gate, or the inserted one.
func (q *query) isGate(id netlist.NodeID) bool {
	if id == q.ins {
		return true
	}
	nd := q.a.nl.Node(id)
	return nd.Kind() == netlist.KindGate && !nd.Dead()
}

// sweep flags the gates the sweep removes: those whose fanout count the
// edit brings to zero, those that had no fanout already, and,
// transitively, the fanins left without fanout by their removal.
func (q *query) sweep() {
	w := q.w
	stack := w.stack[:0]
	kill := func(id netlist.NodeID) {
		w.flags[id] |= wDead
		stack = append(stack, id)
	}
	for _, id := range w.touched {
		if w.fanouts[id] == 0 && q.isGate(id) {
			kill(id)
		}
	}
	for _, id := range q.a.dangling {
		q.visit(id)
		if w.fanouts[id] == 0 && w.flags[id]&wDead == 0 {
			kill(id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := range q.pins(id) {
			f := q.fanin(id, p)
			q.count(f, -1)
			if w.fanouts[f] == 0 && w.flags[f]&wDead == 0 && q.isGate(f) {
				kill(f)
			}
		}
	}
	w.stack = stack
}

// retime re-derives the delay of every live gate whose load changes and
// then, in topological order, the arrival of every gate whose delay or
// fanins change, and onward as far as arrivals change.
func (q *query) retime() {
	a, nl, e, w := q.a, q.a.nl, &q.e, q.w
	for _, id := range w.touched {
		if w.flags[id]&wDead != 0 || id != q.ins && nl.Node(id).IsInput() {
			continue
		}
		load := 0.0
		cell := e.Insert
		if id != q.ins {
			nd := nl.Node(id)
			cell = nd.Cell()
			for _, b := range nd.Fanouts() {
				if !q.isMoved(b) && (b.IsPO() || !q.has(b.Gate, wDead)) {
					load += nl.BranchCap(b)
				}
			}
		}
		if id == q.src {
			for _, b := range e.Moved {
				if q.isMoved(b) && (b.IsPO() || !q.has(b.Gate, wDead)) {
					load += nl.BranchCap(b)
				}
			}
		}
		if q.ins != netlist.InvalidNode && !q.has(q.ins, wDead) {
			for p, f := range e.In {
				if f == id {
					load += e.Insert.Pins[p].Cap
				}
			}
		}
		w.delay[id] = cell.Delay(load)
		if id == q.ins || w.delay[id] != a.gateDelay[id] {
			q.push(id)
		}
	}
	for _, b := range e.Moved {
		if !b.IsPO() && q.isMoved(b) {
			q.push(b.Gate)
		}
	}
	for len(w.heap) > 0 {
		id := q.pop()
		arr := 0.0
		for p := range q.pins(id) {
			if v := q.arrival(q.fanin(id, p)); v > arr {
				arr = v
			}
		}
		if q.has(id, wLoad) {
			arr += w.delay[id]
		} else {
			arr += a.gateDelay[id]
		}
		switch {
		case q.has(id, wArr):
			if arr == w.arr[id] {
				continue
			}
		case id != q.ins && arr == a.arrival[id]:
			continue
		}
		w.arr[id] = arr
		w.flags[id] |= wArr
		if id != q.ins {
			for _, b := range nl.Node(id).Fanouts() {
				if !b.IsPO() {
					q.push(b.Gate)
				}
			}
		}
		if id == q.src {
			for _, b := range e.Moved {
				if !b.IsPO() && q.isMoved(b) {
					q.push(b.Gate)
				}
			}
		}
		if q.ins != netlist.InvalidNode {
			for _, f := range e.In {
				if f == id {
					q.push(q.ins)
				}
			}
		}
	}
}

// arrival returns id's arrival after the edit as far as it is known:
// re-derived, or the analysis's. The inserted gate arrives at 0 until its
// first re-derivation, which re-queues its fanouts.
func (q *query) arrival(id netlist.NodeID) float64 {
	if q.has(id, wArr) {
		return q.w.arr[id]
	}
	if id == q.ins {
		return 0
	}
	return q.a.arrival[id]
}

// key orders the re-derivation: topological position, the inserted gate
// right after its last fanin.
func (q *query) key(id netlist.NodeID) int32 {
	if id == q.ins {
		last := int32(0)
		for _, f := range q.e.In {
			last = max(last, q.w.pos[f])
		}
		return 2*last + 1
	}
	return 2 * q.w.pos[id]
}

// push queues a live gate for re-derivation unless it is queued already.
func (q *query) push(id netlist.NodeID) {
	q.visit(id)
	w := q.w
	if w.flags[id]&(wHeap|wDead) != 0 {
		return
	}
	w.flags[id] |= wHeap
	h := append(w.heap, id)
	k := q.key(id)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if q.key(h[parent]) <= k {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	w.heap = h
}

// pop dequeues the gate with the smallest key.
func (q *query) pop() netlist.NodeID {
	w := q.w
	h := w.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && q.key(h[c]) < q.key(h[small]) {
				small = c
			}
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	w.heap = h
	w.flags[top] &^= wHeap
	return top
}
