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
// confirmed by DelayAfter, the exact delay of the applied netlist; the
// paper's guarantee — the circuit delay never exceeds the constraint —
// therefore holds unconditionally. The confirmation re-times only what
// the substitution changes and allocates nothing.
func DelayOK(nl *netlist.Netlist, s *Substitution, a *sta.Analysis) bool {
	if !delayOKLocal(nl, s, a) {
		return false
	}
	d, ok := DelayAfter(nl, s, a)
	return ok && d <= a.Constraint()+delayEps
}

// DelayAfter returns the circuit delay nl would have after Apply(nl, s),
// bit for bit what sta.New would compute on the applied netlist, from a,
// nl's current analysis, without editing nl. ok is false exactly when
// Apply would fail.
func DelayAfter(nl *netlist.Netlist, s *Substitution, a *sta.Analysis) (delay float64, ok bool) {
	var buf editBuf
	e, err := s.edit(nl, &buf)
	if err != nil {
		return 0, false
	}
	return a.DelayAfter(&e)
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
