// Package sta implements static timing analysis over mapped netlists using
// the paper's linear delay model (Section 2): the delay of gate s is
//
//	D(s) = tau(s) + C(s) * R(s)
//
// with tau the intrinsic delay, C the capacitive load on the gate's output
// and R its drive resistance. Arrival times propagate forward from the
// primary inputs, required times backward from the primary outputs against
// a constraint, and the circuit delay is the maximum primary-output
// arrival time.
package sta

import (
	"math"

	"powder/internal/netlist"
)

// Analysis holds the timing state of one netlist snapshot. It is immutable;
// recompute after netlist edits. Primary inputs are ideal drivers: they
// arrive at time 0 whatever their load.
type Analysis struct {
	nl        *netlist.Netlist
	version   int64
	order     []netlist.NodeID
	arrival   []float64
	required  []float64
	gateDelay []float64
	// dangling lists the live gates without fanout, which the sweep
	// after any edit removes.
	dangling []netlist.NodeID
	delay    float64
	constr   float64
	// w is DelayAfter's scratch, allocated by its first call.
	w *whatIf
}

// New computes arrival and required times. A positive constraint sets the
// required time at every primary output; constraint <= 0 uses the computed
// circuit delay itself (zero-slack on the critical path).
func New(nl *netlist.Netlist, constraint float64) *Analysis {
	a := &Analysis{nl: nl, constr: constraint}
	a.compute()
	return a
}

func (a *Analysis) compute() {
	nl := a.nl
	n := nl.NumNodes()
	a.arrival = make([]float64, n)
	a.required = make([]float64, n)
	a.gateDelay = make([]float64, n)
	a.version = nl.Version()
	order := nl.TopoOrder()
	a.order = order

	// Forward: arrival times.
	a.delay = 0
	for _, id := range order {
		nd := nl.Node(id)
		if nd.Kind() == netlist.KindInput {
			continue // arrival and gate delay stay 0
		}
		if nd.NumFanouts() == 0 {
			a.dangling = append(a.dangling, id)
		}
		d := nd.Cell().Delay(nl.Load(id))
		a.gateDelay[id] = d
		worst := 0.0
		for _, f := range nd.Fanins() {
			if a.arrival[f] > worst {
				worst = a.arrival[f]
			}
		}
		a.arrival[id] = worst + d
	}
	for _, po := range nl.Outputs() {
		if a.arrival[po.Driver] > a.delay {
			a.delay = a.arrival[po.Driver]
		}
	}

	// Backward: required times.
	req := a.constr
	if req <= 0 {
		req = a.delay
	}
	for i := range a.required {
		a.required[i] = math.Inf(1)
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		nd := nl.Node(id)
		for _, b := range nd.Fanouts() {
			var r float64
			if b.IsPO() {
				r = req
			} else {
				r = a.required[b.Gate] - a.gateDelay[b.Gate]
			}
			if r < a.required[id] {
				a.required[id] = r
			}
		}
	}
}

// Delay returns the circuit delay (worst primary-output arrival time).
func (a *Analysis) Delay() float64 { return a.delay }

// Constraint returns the required time applied at the primary outputs.
func (a *Analysis) Constraint() float64 {
	if a.constr <= 0 {
		return a.delay
	}
	return a.constr
}

// Arrival returns the arrival time at the node's output.
func (a *Analysis) Arrival(id netlist.NodeID) float64 { return a.arrival[id] }

// Required returns the required time at the node's output; nodes with no
// path to an output have +Inf required time.
func (a *Analysis) Required(id netlist.NodeID) float64 { return a.required[id] }

// Slack returns required minus arrival.
func (a *Analysis) Slack(id netlist.NodeID) float64 { return a.required[id] - a.arrival[id] }

// GateDelay returns D(s) for a gate (zero for inputs).
func (a *Analysis) GateDelay(id netlist.NodeID) float64 { return a.gateDelay[id] }

// Met reports whether the circuit meets the constraint.
func (a *Analysis) Met() bool { return a.delay <= a.Constraint()+1e-9 }

// drive returns the drive resistance of a node's output (0 for the
// ideal primary-input drivers).
func (a *Analysis) drive(id netlist.NodeID) float64 {
	nd := a.nl.Node(id)
	if nd.Kind() == netlist.KindInput {
		return 0
	}
	return nd.Cell().Drive
}

// ArrivalWithExtraLoad returns the node's arrival time if its output load
// grew by extraCap.
func (a *Analysis) ArrivalWithExtraLoad(id netlist.NodeID, extraCap float64) float64 {
	return a.arrival[id] + extraCap*a.drive(id)
}

// ExtraLoadOK reports whether adding extraCap to node id's output keeps
// every *existing* path through id within the constraint: the arrival
// shift must not exceed the node's slack.
func (a *Analysis) ExtraLoadOK(id netlist.NodeID, extraCap float64) bool {
	if extraCap <= 0 {
		return true
	}
	shift := extraCap * a.drive(id)
	return shift <= a.Slack(id)+1e-9
}

// RequiredAtBranch returns the required time of the branch signal feeding
// pin pin of gate g: the gate's required time minus its own delay. For
// primary-output sinks use Constraint directly.
func (a *Analysis) RequiredAtBranch(b netlist.Branch) float64 {
	if b.IsPO() {
		return a.Constraint()
	}
	return a.required[b.Gate] - a.gateDelay[b.Gate]
}

// CriticalPath returns the node IDs of one critical path, input first.
func (a *Analysis) CriticalPath() []netlist.NodeID {
	// Find the critical PO driver.
	var cur netlist.NodeID = netlist.InvalidNode
	worst := math.Inf(-1)
	for _, po := range a.nl.Outputs() {
		if a.arrival[po.Driver] > worst {
			worst = a.arrival[po.Driver]
			cur = po.Driver
		}
	}
	if cur == netlist.InvalidNode {
		return nil
	}
	var rev []netlist.NodeID
	for {
		rev = append(rev, cur)
		nd := a.nl.Node(cur)
		if nd.Kind() == netlist.KindInput {
			break
		}
		var next netlist.NodeID = netlist.InvalidNode
		worst := math.Inf(-1)
		for _, f := range nd.Fanins() {
			if a.arrival[f] > worst {
				worst = a.arrival[f]
				next = f
			}
		}
		if next == netlist.InvalidNode {
			break
		}
		cur = next
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
