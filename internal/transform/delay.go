package transform

import (
	"powder/internal/netlist"
	"powder/internal/sta"
)

const delayEps = 1e-9

// DelayOK reports whether applying s keeps the circuit within the timing
// constraint of the given analysis (paper Section 3.4). A cheap local
// filter rejects most offenders:
//
//  1. the substituting signal (or the newly inserted gate) must arrive no
//     later than the required time of the substituted signal, and
//  2. signals that pick up extra fanout load must have enough slack to
//     absorb the resulting arrival shift on their existing paths.
//
// The local checks alone can miss pathological interactions (one path
// accumulating the shifts of several loaded signals), so survivors are
// confirmed exactly on a scratch copy; the paper's guarantee — the
// circuit delay never exceeds the constraint — therefore holds
// unconditionally. Load that is *removed* only ever speeds the circuit up.
func DelayOK(nl *netlist.Netlist, s *Substitution, a *sta.Analysis) bool {
	if !delayOKLocal(nl, s, a) {
		return false
	}
	cp := nl.Clone()
	sCp := *s
	if _, err := Apply(cp, &sCp); err != nil {
		return false
	}
	d := sta.New(cp, 0).Delay()
	return d <= a.Constraint()+delayEps
}

// delayOKLocal is the paper's incremental feasibility check.
func delayOKLocal(nl *netlist.Netlist, s *Substitution, a *sta.Analysis) bool {
	moved := s.movedCap(nl)

	// Required time of the substituted signal.
	var req float64
	if s.IsBranchSub() {
		req = a.RequiredAtBranch(netlist.Branch{Gate: s.G, Pin: s.Pin})
	} else {
		req = a.Required(s.A)
	}

	switch {
	case s.Src.IsThree():
		capB := s.NewCell.Pins[0].Cap
		capC := s.NewCell.Pins[1].Cap
		if !a.ExtraLoadOK(s.Src.B, capB) || !a.ExtraLoadOK(s.Src.C, capC) {
			return false
		}
		arrB := a.ArrivalWithExtraLoad(s.Src.B, capB)
		arrC := a.ArrivalWithExtraLoad(s.Src.C, capC)
		arrH := max(arrB, arrC) + s.NewCell.Delay(moved)
		return arrH <= req+delayEps

	case s.Src.InvertB && s.Inv == InvAdd:
		inv := nl.Lib.Inverter()
		if !a.ExtraLoadOK(s.Src.B, inv.Pins[0].Cap) {
			return false
		}
		arr := a.ArrivalWithExtraLoad(s.Src.B, inv.Pins[0].Cap) + inv.Delay(moved)
		return arr <= req+delayEps

	case s.Src.InvertB && s.Inv == InvReuse:
		if !a.ExtraLoadOK(s.InvNode, moved) {
			return false
		}
		return a.ArrivalWithExtraLoad(s.InvNode, moved) <= req+delayEps

	default:
		if !a.ExtraLoadOK(s.Src.B, moved) {
			return false
		}
		return a.ArrivalWithExtraLoad(s.Src.B, moved) <= req+delayEps
	}
}

func max(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}
