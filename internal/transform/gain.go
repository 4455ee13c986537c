package transform

import (
	"powder/internal/netlist"
	"powder/internal/power"
)

// Analyzer computes the power-gain contributions of candidate
// substitutions against one netlist + power model (paper Section 3.3).
// It reuses its buffers across calls, so it is not safe for concurrent
// use.
type Analyzer struct {
	nl    *netlist.Netlist
	pm    *power.Model
	cones *netlist.DeadCones
	// src and alt are AnalyzeC's value-word buffers.
	src, alt []uint64
}

// NewAnalyzer wraps a netlist and its power model. The analyzer follows
// later edits of both, so one serves a whole optimization run.
func NewAnalyzer(nl *netlist.Netlist, pm *power.Model) *Analyzer {
	return &Analyzer{nl: nl, pm: pm, cones: netlist.NewDeadCones(nl)}
}

// AnalyzeAB fills s.GainAB (= PG_A + PG_B) and s.AreaDelta. Neither
// requires any reestimation, exactly as the paper's pre-selection exploits.
// It runs in time linear in the dead cone and its fanin pins and does not
// allocate.
func (an *Analyzer) AnalyzeAB(s *Substitution) {
	nl, pm := an.nl, an.pm
	moved := s.movedCap(nl)

	// PG_A: the dominated region that dies, plus load relief on its
	// boundary (Eq. 3). The substituting signal(s) pick up the moved load
	// and survive, so they are excluded from the dead cone.
	var keepBuf [3]netlist.NodeID
	keep := append(keepBuf[:0], s.Src.B)
	if s.Src.IsThree() {
		keep = append(keep, s.Src.C)
	}
	if s.Src.InvertB && s.Inv == InvReuse {
		keep = append(keep, s.InvNode)
	}
	var cone []netlist.NodeID
	if s.IsBranchSub() {
		cone = an.cones.Branch(s.A, netlist.Branch{Gate: s.G, Pin: s.Pin}, keep...)
	} else {
		cone = an.cones.Stem(s.A, keep...)
	}
	pgA := 0.0
	areaDelta := 0.0
	if an.cones.Contains(s.A) {
		for _, id := range cone {
			pgA += nl.Load(id) * pm.TransitionProb(id)
			areaDelta -= nl.Node(id).Cell().Area
		}
		// Cross branches: capacitance inside the cone driven from outside.
		// Walk the cone's fanin pins (O(cone)) rather than every node.
		for _, id := range cone {
			n := nl.Node(id)
			for pin, f := range n.Fanins() {
				if !an.cones.Contains(f) {
					pgA += n.Cell().Pins[pin].Cap * pm.TransitionProb(f)
				}
			}
		}
	} else {
		// Nothing dies: only the detached branch load leaves stem A.
		pgA = moved * pm.TransitionProb(s.A)
	}

	// PG_B: the penalty of driving the moved load from the source (Eq. 4),
	// including any newly inserted inverter or gate.
	eB := pm.TransitionProb(s.Src.B)
	pgB := 0.0
	switch {
	case s.Src.IsThree():
		eH := an.newGateTransitionProb(s)
		eC := pm.TransitionProb(s.Src.C)
		pgB = -(s.NewCell.Pins[0].Cap*eB + s.NewCell.Pins[1].Cap*eC + moved*eH)
		areaDelta += s.NewCell.Area
	case s.Src.InvertB && s.Inv == InvAdd:
		inv := nl.Lib.Inverter()
		pgB = -(inv.Pins[0].Cap*eB + moved*eB)
		areaDelta += inv.Area
	case s.Src.InvertB && s.Inv == InvReuse:
		pgB = -moved * pm.TransitionProb(s.InvNode)
	default:
		pgB = -moved * eB
	}

	s.GainAB = pgA + pgB
	s.AreaDelta = areaDelta
}

// newGateTransitionProb estimates E of the output H = tt(B, C) of the gate
// a 3-signal substitution inserts. It needs one popcount pass, over B AND
// C: with the simulator's cached one-counts of B and C that fixes the
// count of all four input minterms, and H's count is the sum over its
// on-set.
func (an *Analyzer) newGateTransitionProb(s *Substitution) float64 {
	sm := an.pm.Sim()
	b, c := s.Src.B, s.Src.C
	n, nb, nc := sm.NumVectors(), sm.Ones(b), sm.Ones(c)
	nbc := sm.CountOnesAnd(sm.Value(b), sm.Value(c))
	// Minterm m of Eval2Words: bit 0 is B, bit 1 is C.
	minterms := [4]int{n - nb - nc + nbc, nb - nbc, nc - nbc, nbc}
	ones := 0
	for m, k := range minterms {
		if s.Src.Gate.Eval(uint(m)) {
			ones += k
		}
	}
	return power.TransitionProbOf(float64(ones) / float64(n))
}

// AnalyzeC fills s.GainC (= PG_C, Eq. 5) by hypothetically propagating the
// substitution through the transitive fanout and re-deriving transition
// probabilities there. This is the expensive reestimation step the paper
// reserves for pre-selected candidates.
func (an *Analyzer) AnalyzeC(s *Substitution) {
	nl, pm := an.nl, an.pm
	sm := pm.Sim()

	srcWords := an.sourceWords(s)
	var root netlist.NodeID
	var alt []uint64
	if s.IsBranchSub() {
		alt = an.buffer(&an.alt)
		sm.GateValueWithPin(s.G, s.Pin, srcWords, alt)
		root = s.G
	} else {
		root = s.A
		alt = srcWords
	}
	ov := sm.Hypothetical(root, alt)

	pgC := 0.0
	for _, id := range ov.Affected {
		if !s.IsBranchSub() && id == s.A {
			// The substituted stem itself disappears; PG_A accounted for it.
			continue
		}
		ones := sm.CountOnes(ov.Value(id))
		eNew := power.TransitionProbOf(float64(ones) / float64(sm.NumVectors()))
		pgC += nl.Load(id) * (pm.TransitionProb(id) - eNew)
	}
	s.GainC = pgC
}

// sourceWords returns the simulated value words of the substituting
// signal, in a buffer reused by the next call.
func (an *Analyzer) sourceWords(s *Substitution) []uint64 {
	sm := an.pm.Sim()
	bw := sm.Value(s.Src.B)
	out := an.buffer(&an.src)
	switch {
	case s.Src.IsThree():
		s.Src.Gate.Eval2Words(bw, sm.Value(s.Src.C), out)
	case s.Src.InvertB:
		for w := range bw {
			out[w] = ^bw[w]
		}
	default:
		copy(out, bw)
	}
	return out
}

// buffer returns *buf sized to the simulator's word count.
func (an *Analyzer) buffer(buf *[]uint64) []uint64 {
	if w := an.pm.Sim().Words(); len(*buf) != w {
		*buf = make([]uint64, w)
	}
	return *buf
}
