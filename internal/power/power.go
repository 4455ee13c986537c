// Package power implements the paper's zero-delay power model (Section 2):
//
//	P_circuit = 1/2 Vdd^2 f * sum_i C(i) * E(i)
//
// where C(i) is the capacitive load of stem signal i and E(i) its
// transition probability. Assuming temporal independence of the primary
// inputs, E(i) = 2 p(i) (1 - p(i)) with p(i) the signal probability.
// Like the paper's tables, the package reports the technology-level sum
// sum_i C(i)*E(i); Scale converts it to watts for given Vdd and f.
//
// The Model caches the transition probability of every signal, exactly as
// POWDER stores them during the initial estimation. After an edit, Resync
// re-simulates (the simulator rewrites only the words that change) and
// re-derives the cache, whose entries move only where words changed.
package power

import (
	"fmt"
	"math"

	"powder/internal/netlist"
	"powder/internal/sim"
)

// Model estimates and tracks the switching power of one netlist.
type Model struct {
	nl *netlist.Netlist
	s  *sim.Simulator
	// e caches the transition probability per node ID; NaN-free: dead or
	// unknown nodes hold zero and are never summed.
	e []float64
	// pinned holds externally measured transition densities per node ID
	// (NaN = unpinned). A workload activity profile pins E(i) at the
	// primary inputs, overriding the 2p(1-p) independence value there;
	// internal stems keep the propagated model. nil when nothing is
	// pinned.
	pinned []float64
}

// New builds a power model over a simulator that has already been run.
func New(nl *netlist.Netlist, s *sim.Simulator) *Model {
	m := &Model{nl: nl, s: s}
	m.Reestimate()
	return m
}

// Sim returns the underlying simulator.
func (m *Model) Sim() *sim.Simulator { return m.s }

// Reestimate recomputes every cached transition probability from the
// current simulation values (the paper's initial power_estimate step).
func (m *Model) Reestimate() {
	if len(m.e) < m.nl.NumNodes() {
		e := make([]float64, m.nl.NumNodes())
		copy(e, m.e)
		m.e = e
	}
	m.nl.LiveNodes(func(n *netlist.Node) {
		m.e[n.ID()] = m.applyPin(n.ID(), transition(m.s.Probability(n.ID())))
	})
}

// PinInputs pins the transition density of each primary input to the
// given per-input values (in input order, matching nl.Inputs()); NaN
// entries leave the input on the independence model. Pins come from a
// measured workload activity profile and survive Reestimate and Resync.
// Panics on a length mismatch, mirroring sim.SetInputsRandom.
func (m *Model) PinInputs(toggles []float64) {
	ins := m.nl.Inputs()
	if len(toggles) != len(ins) {
		panic(fmt.Sprintf("power: %d toggle densities for %d inputs", len(toggles), len(ins)))
	}
	m.pinned = make([]float64, m.nl.NumNodes())
	for i := range m.pinned {
		m.pinned[i] = math.NaN()
	}
	for i, id := range ins {
		m.pinned[id] = toggles[i]
	}
	for _, id := range ins {
		m.e[id] = m.applyPin(id, m.e[id])
	}
}

// applyPin substitutes a pinned density for the model value, if any.
func (m *Model) applyPin(id netlist.NodeID, e float64) float64 {
	if m.pinned == nil || int(id) >= len(m.pinned) {
		return e
	}
	if p := m.pinned[id]; !math.IsNaN(p) {
		return p
	}
	return e
}

// transition converts a signal probability to a transition probability
// under the temporal-independence assumption.
func transition(p float64) float64 { return 2 * p * (1 - p) }

// TransitionProb returns the cached transition probability E(i) of a stem.
func (m *Model) TransitionProb(id netlist.NodeID) float64 { return m.e[id] }

// TransitionProbOf computes the transition probability a signal would have
// with the given signal probability; exported for what-if evaluation.
func TransitionProbOf(p float64) float64 { return transition(p) }

// SignalPower returns C(i)*E(i) for one stem signal.
func (m *Model) SignalPower(id netlist.NodeID) float64 {
	return m.nl.Load(id) * m.e[id]
}

// Total returns sum_i C(i)*E(i) over all live stems, the quantity the
// paper's Table 1 reports as "power".
func (m *Model) Total() float64 {
	total := 0.0
	m.nl.LiveNodes(func(n *netlist.Node) {
		total += m.nl.Load(n.ID()) * m.e[n.ID()]
	})
	return total
}

// PerNode returns C(i)*E(i) for every node ID (dead nodes report zero),
// appending into buf when it has capacity. Diffing two captures taken
// around a netlist edit yields the per-node decomposition of the power
// change over the touched cone — the attribution the run ledger records
// for every applied substitution.
func (m *Model) PerNode(buf []float64) []float64 {
	out := buf[:0]
	n := m.nl.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
		for i := range out {
			out[i] = 0
		}
	}
	m.nl.LiveNodes(func(node *netlist.Node) {
		id := node.ID()
		out[id] = m.nl.Load(id) * m.e[id]
	})
	return out
}

// Resync re-simulates after the netlist was edited (the paper's
// power_estimate_update after a performed substitution) and re-derives
// every cached transition probability. It returns the nodes whose
// simulated words changed, as sim.Simulator.Run does: a node's E can
// only have moved if it is among them.
func (m *Model) Resync() []netlist.NodeID {
	changed := m.s.Run()
	m.Reestimate()
	return changed
}

// Scale converts a sum C*E value into the full Eq. 1 power for the given
// supply voltage (volts) and clock frequency (hertz); the capacitance unit
// is taken as 1 fF per unit, so the result is in watts * 1e-15 per
// capacitance-unit scale. Callers wanting absolute watts must know their
// library's capacitance unit.
func Scale(sumCE, vdd, freq float64) float64 { return 0.5 * vdd * vdd * freq * sumCE }

// Report is a snapshot of the three quantities Table 1 tracks per circuit.
type Report struct {
	Power float64 // sum C*E
	Area  float64
	Gates int
}

// Snapshot captures the current power and area of the netlist.
func (m *Model) Snapshot() Report {
	return Report{Power: m.Total(), Area: m.nl.Area(), Gates: m.nl.GateCount()}
}

// String renders the report compactly.
func (r Report) String() string {
	return fmt.Sprintf("power=%.3f area=%.0f gates=%d", r.Power, r.Area, r.Gates)
}

// Options configures Estimate.
type Options struct {
	// Words is the number of 64-bit sample words (default 64 = 4096
	// vectors) when random vectors are used.
	Words int
	// Seed seeds the random vector generator (default 1).
	Seed int64
	// InputProbs optionally gives per-input signal probabilities.
	InputProbs []float64
	// InputToggles optionally pins per-input transition densities
	// measured from a workload activity profile (NaN entries stay on the
	// independence model). See Model.PinInputs.
	InputToggles []float64
	// ExhaustiveLimit: if the circuit has at most this many inputs (and
	// InputProbs is nil), exhaustive vectors are used and the estimate is
	// exact. Default 14.
	ExhaustiveLimit int
}

func (o *Options) fill() {
	if o.Words <= 0 {
		o.Words = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = 14
	}
}

// Estimate builds a simulator and power model for the netlist using the
// given options. It is the one-call entry point used by tools and tests.
func Estimate(nl *netlist.Netlist, opts Options) *Model {
	opts.fill()
	words := opts.Words
	exhaustive := opts.InputProbs == nil && len(nl.Inputs()) <= opts.ExhaustiveLimit
	if exhaustive {
		need := (1<<uint(len(nl.Inputs())) + 63) / 64
		if need > words {
			words = need
		}
	}
	s := sim.New(nl, words)
	if exhaustive {
		if err := s.SetInputsExhaustive(); err != nil {
			// Fall back to random vectors; the limit check above makes this
			// unreachable in practice.
			s.SetInputsRandom(opts.Seed, opts.InputProbs)
		}
	} else {
		s.SetInputsRandom(opts.Seed, opts.InputProbs)
	}
	s.Run()
	m := New(nl, s)
	if opts.InputToggles != nil {
		m.PinInputs(opts.InputToggles)
	}
	return m
}
