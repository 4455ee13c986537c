// Package resize implements the gate re-sizing phase of the logic
// synthesis flow in the paper's Figure 1 (cf. Bahar et al., ICCAD'94,
// cited there): each gate may be swapped for a library cell with the same
// function but a different drive strength. Downsizing reduces the input
// capacitance the gate presents to its fanins — and hence sum C·E — while
// increasing the gate's own delay; re-sizing therefore trades power
// against the delay constraint exactly like POWDER's substitutions, but
// without touching the circuit structure. The pass composes with POWDER:
// run it before, after, or interleaved.
package resize

import (
	"fmt"
	"sort"

	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/sta"
)

// Options configures a re-sizing pass.
type Options struct {
	// DelayConstraint is the absolute required output time; <= 0 uses the
	// circuit's current delay (re-sizing then must not slow it down).
	DelayConstraint float64
	// Power configures probability estimation when no model is supplied.
	Power power.Options
}

// maxRounds bounds the power-recovery sweeps; delay repair may take four
// times as many.
const maxRounds = 4

// Result summarizes a pass.
type Result struct {
	Swaps        int
	InitialPower float64
	FinalPower   float64
	InitialArea  float64
	FinalArea    float64
	InitialDelay float64
	FinalDelay   float64
	Constraint   float64
}

// PowerReductionPct returns the percentage power reduction.
func (r *Result) PowerReductionPct() float64 {
	if r.InitialPower == 0 {
		return 0
	}
	return 100 * (r.InitialPower - r.FinalPower) / r.InitialPower
}

func (r *Result) String() string {
	return fmt.Sprintf("resize: %d swaps, power %.3f -> %.3f (%+.1f%%), delay %.2f -> %.2f (constraint %.2f)",
		r.Swaps, r.InitialPower, r.FinalPower, -r.PowerReductionPct(),
		r.InitialDelay, r.FinalDelay, r.Constraint)
}

// Optimize re-sizes gates in place for minimum power under the delay
// constraint. It is greedy per gate, sweeping until no swap helps.
func Optimize(nl *netlist.Netlist, opts Options) (*Result, error) {
	pm := power.Estimate(nl, opts.Power)
	res := &Result{
		InitialPower: pm.Total(),
		InitialArea:  nl.Area(),
	}
	analysis := sta.New(nl, 0)
	res.InitialDelay = analysis.Delay()
	constraint := opts.DelayConstraint
	if constraint <= 0 {
		constraint = res.InitialDelay
	}
	res.Constraint = constraint

	// Variant groups by truth table, precomputed once.
	variants := variantIndex(nl.Lib)

	// Phase 1 — delay repair: while the circuit misses the constraint,
	// upsize critical-path gates (higher drive, lower R*C delay) even
	// though that costs input capacitance. This recovers the delay an
	// unconstrained POWDER run traded away.
	for round := 0; round < 4*maxRounds; round++ {
		a := sta.New(nl, constraint)
		if a.Delay() <= constraint+1e-9 {
			break
		}
		bestDelay := a.Delay()
		var bestGate netlist.NodeID = netlist.InvalidNode
		var bestCell *cellib.Cell
		for _, id := range a.CriticalPath() {
			n := nl.Node(id)
			if n.Kind() != netlist.KindGate {
				continue
			}
			for _, cand := range variants[n.Cell().TT] {
				if cand == n.Cell() {
					continue
				}
				old := n.Cell()
				if err := nl.ReplaceCell(id, cand); err != nil {
					return nil, err
				}
				d := sta.New(nl, constraint).Delay()
				if err := nl.ReplaceCell(id, old); err != nil {
					return nil, err
				}
				if d < bestDelay-1e-12 {
					bestDelay, bestGate, bestCell = d, id, cand
				}
			}
		}
		if bestGate == netlist.InvalidNode {
			break // no swap improves the critical path
		}
		if err := nl.ReplaceCell(bestGate, bestCell); err != nil {
			return nil, err
		}
		res.Swaps++
	}

	// Phase 2 — power recovery: greedily downsize wherever the slack
	// allows.
	for round := 0; round < maxRounds; round++ {
		changed := 0
		// Visit high-load gates first: their fanin caps matter most.
		var gates []netlist.NodeID
		nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate {
				gates = append(gates, n.ID())
			}
		})
		sort.Slice(gates, func(i, j int) bool { return nl.Load(gates[i]) > nl.Load(gates[j]) })

		for _, id := range gates {
			n := nl.Node(id)
			if n.Dead() {
				continue
			}
			group := variants[n.Cell().TT]
			if len(group) < 2 {
				continue
			}
			best := n.Cell()
			bestGain := 0.0
			for _, cand := range group {
				if cand == n.Cell() {
					continue
				}
				gain := swapPowerGain(nl, pm, id, cand)
				if gain > bestGain+1e-12 {
					// Tentatively swap and verify timing exactly.
					old := n.Cell()
					if err := nl.ReplaceCell(id, cand); err != nil {
						return nil, err
					}
					a := sta.New(nl, constraint)
					if a.Delay() <= constraint+1e-9 {
						best, bestGain = cand, gain
					}
					if err := nl.ReplaceCell(id, old); err != nil {
						return nil, err
					}
				}
			}
			if best != n.Cell() {
				if err := nl.ReplaceCell(id, best); err != nil {
					return nil, err
				}
				changed++
			}
		}
		if changed == 0 {
			break
		}
		res.Swaps += changed
	}

	res.FinalPower = pm.Total()
	res.FinalArea = nl.Area()
	res.FinalDelay = sta.New(nl, 0).Delay()
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("resize: netlist invalid after pass: %v", err)
	}
	return res, nil
}

// swapPowerGain computes the exact sum-C*E change of replacing gate id's
// cell: only the input-pin capacitances move (the function and therefore
// every E is unchanged).
func swapPowerGain(nl *netlist.Netlist, pm *power.Model, id netlist.NodeID, cand *cellib.Cell) float64 {
	n := nl.Node(id)
	gain := 0.0
	for pin, f := range n.Fanins() {
		dCap := n.Cell().Pins[pin].Cap - cand.Pins[pin].Cap
		gain += dCap * pm.TransitionProb(f)
	}
	return gain
}

// variantIndex groups the library's cells by exact truth table.
func variantIndex(lib *cellib.Library) map[logic.TT][]*cellib.Cell {
	idx := make(map[logic.TT][]*cellib.Cell)
	for _, c := range lib.Cells() {
		idx[c.TT] = append(idx[c.TT], c)
	}
	return idx
}
