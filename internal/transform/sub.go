// Package transform implements the paper's structural netlist
// transformations (Section 3): the permissible signal substitutions
// OS2/IS2 (replace a stem or branch signal by an existing signal, possibly
// inverted) and OS3/IS3 (replace it by the output of a newly inserted
// two-input library gate), together with
//
//   - candidate generation from bit-parallel simulation signatures and
//     observability don't-care masks (the fault-simulation-based technique
//     of the paper's references [2,5]),
//   - the power-gain analysis PG = PG_A + PG_B + PG_C of Section 3.3,
//   - the delay feasibility check of Section 3.4, and
//   - application of a substitution to the netlist, including dominated-
//     region pruning and inverter reuse/materialization.
package transform

import (
	"fmt"
	"slices"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/sta"
)

// Kind is the substitution class of the paper's Definitions 1 and 2.
type Kind int

const (
	// OS2 substitutes a stem signal by an existing signal.
	OS2 Kind = iota
	// IS2 substitutes a single branch signal by an existing signal.
	IS2
	// OS3 substitutes a stem signal by a new 2-input gate.
	OS3
	// IS3 substitutes a branch signal by a new 2-input gate.
	IS3
)

func (k Kind) String() string {
	switch k {
	case OS2:
		return "OS2"
	case IS2:
		return "IS2"
	case OS3:
		return "OS3"
	case IS3:
		return "IS3"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// InvPlan describes how an inverted substituting signal is realized.
type InvPlan int

const (
	// InvNone: the source is used as-is.
	InvNone InvPlan = iota
	// InvReuse: an existing inverter gate already computes the inverted
	// signal; its output is used.
	InvReuse
	// InvAdd: a new inverter cell must be inserted.
	InvAdd
)

// Substitution is one candidate transformation.
type Substitution struct {
	Kind Kind
	// A is the substituted stem signal (for IS2/IS3 the current driver of
	// the branch).
	A netlist.NodeID
	// G/Pin identify the branch for IS2/IS3; G is InvalidNode for OS2/OS3.
	G   netlist.NodeID
	Pin int
	// Src is the substituting signal specification (shared with the ATPG
	// checker).
	Src atpg.Source
	// NewCell is the library cell realizing Src.Gate for OS3/IS3.
	NewCell *cellib.Cell
	// Inv describes inverter realization when Src.InvertB is set on a
	// 2-signal substitution; InvNode is the reused inverter for InvReuse.
	Inv     InvPlan
	InvNode netlist.NodeID

	// GainAB caches PG_A + PG_B (no reestimation needed).
	GainAB float64
	// GainC caches PG_C (set by AnalyzeC).
	GainC float64
	// AreaDelta is the area change if applied (negative = smaller).
	AreaDelta float64
}

// IsBranchSub reports whether the substitution rewires a single branch.
func (s *Substitution) IsBranchSub() bool { return s.Kind == IS2 || s.Kind == IS3 }

// Gain returns the total estimated power gain PG_A + PG_B + PG_C.
func (s *Substitution) Gain() float64 { return s.GainAB + s.GainC }

// TargetString renders the substituted signal ("stem 12",
// "branch 12->34.1"); the run ledger records it as provenance.
func (s *Substitution) TargetString() string {
	if s.IsBranchSub() {
		return fmt.Sprintf("branch %d->%d.%d", s.A, s.G, s.Pin)
	}
	return fmt.Sprintf("stem %d", s.A)
}

// SourceString renders the substituting signal ("34", "!34",
// "nand2(34,56)").
func (s *Substitution) SourceString() string {
	src := fmt.Sprintf("%d", s.Src.B)
	if s.Src.InvertB {
		src = "!" + src
	}
	if s.Src.IsThree() {
		src = fmt.Sprintf("%s(%s,%d)", s.NewCell.Name, src, s.Src.C)
	}
	return src
}

// String renders the substitution compactly for logs and tests.
func (s *Substitution) String() string {
	return fmt.Sprintf("%s %s <- %s (gainAB=%.4f gainC=%.4f)", s.Kind, s.TargetString(), s.SourceString(), s.GainAB, s.GainC)
}

// movedCap returns the capacitance moved from A to the substituting signal.
func (s *Substitution) movedCap(nl *netlist.Netlist) float64 {
	if s.IsBranchSub() {
		return nl.BranchCap(netlist.Branch{Gate: s.G, Pin: s.Pin})
	}
	c := 0.0
	for _, b := range nl.Node(s.A).Fanouts() {
		c += nl.BranchCap(b)
	}
	return c
}

// ApplyResult records what Apply changed.
type ApplyResult struct {
	// Source is the node now driving the rewired branches (b itself, an
	// inverter output, or the new gate).
	Source netlist.NodeID
	// Added lists nodes inserted (new gate and/or new inverter).
	Added []netlist.NodeID
	// Removed lists gates pruned by the dead-cone sweep.
	Removed []netlist.NodeID
}

// editBuf holds the slices of an edit, so that deriving one allocates
// nothing.
type editBuf struct {
	in  [2]netlist.NodeID
	one [1]netlist.Branch
}

// edit returns the netlist edit applying s makes: the gate, if any, that
// materializes the substituting signal (the new 2-input gate of the
// 3-signal forms, or a new inverter), the signal driving the rewired
// branches otherwise, and the branches detached from A. Apply makes the
// edit and DelayAfter times it, so the two cannot drift apart. For a stem
// the branches are A's fanout list itself, which the edit changes.
func (s *Substitution) edit(nl *netlist.Netlist, buf *editBuf) (sta.Edit, error) {
	e := sta.Edit{Source: s.Src.B}
	switch {
	case s.Src.IsThree():
		if s.NewCell == nil {
			return e, fmt.Errorf("transform: 3-substitution without a cell")
		}
		if s.Src.InvertB || s.Src.InvertC {
			return e, fmt.Errorf("transform: inverted inputs on 3-substitutions are not generated")
		}
		buf.in = [2]netlist.NodeID{s.Src.B, s.Src.C}
		e.Insert, e.In = s.NewCell, buf.in[:2]
	case s.Src.InvertB && s.Inv == InvReuse:
		e.Source = s.InvNode
	case s.Src.InvertB && s.Inv == InvAdd:
		if e.Insert = nl.Lib.Inverter(); e.Insert == nil {
			return e, fmt.Errorf("transform: library has no inverter")
		}
		buf.in[0] = s.Src.B
		e.In = buf.in[:1]
	case s.Src.InvertB:
		return e, fmt.Errorf("transform: inverted source without an inverter plan")
	}
	if s.IsBranchSub() {
		buf.one[0] = netlist.Branch{Gate: s.G, Pin: s.Pin}
		e.Moved = buf.one[:]
	} else {
		e.Moved = nl.Node(s.A).Fanouts()
	}
	return e, nil
}

// Apply performs the substitution on the netlist: it materializes the
// substituting signal (reusing or inserting an inverter, inserting the new
// 2-input gate for the 3-signal forms), rewires the detached branches, and
// sweeps the dominated region. The caller is responsible for having
// verified permissibility and timing beforehand; Apply only revalidates
// structure (cycle-freedom) through the netlist editing primitives.
func Apply(nl *netlist.Netlist, s *Substitution) (*ApplyResult, error) {
	var buf editBuf
	e, err := s.edit(nl, &buf)
	if err != nil {
		return nil, err
	}
	res := &ApplyResult{Source: e.Source}
	if e.Insert != nil {
		g, err := nl.AddGate("", e.Insert, e.In)
		if err != nil {
			return nil, err
		}
		res.Source = g
		res.Added = append(res.Added, g)
	}

	// Rewire a copy of the branches: rewiring edits A's fanout list.
	for _, b := range slices.Clone(e.Moved) {
		if b.IsPO() {
			if err := nl.RedirectOutput(b.Pin, res.Source); err != nil {
				return nil, err
			}
		} else {
			if err := nl.ReplaceFanin(b.Gate, b.Pin, res.Source); err != nil {
				return nil, err
			}
		}
	}
	res.Removed = nl.SweepDead()
	return res, nil
}

// ApplySafe is Apply with panic containment: a panic anywhere in the
// apply path (editing primitives included) is converted into an error,
// so a caller running inside a netlist transaction can roll back and
// continue instead of crashing the run.
func ApplySafe(nl *netlist.Netlist, s *Substitution) (res *ApplyResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("transform: panic applying %v: %v", s, r)
		}
	}()
	return Apply(nl, s)
}

// FindInverter returns an existing live inverter gate driven by b, or
// InvalidNode.
func FindInverter(nl *netlist.Netlist, b netlist.NodeID) netlist.NodeID {
	for _, br := range nl.Node(b).Fanouts() {
		if br.IsPO() {
			continue
		}
		g := nl.Node(br.Gate)
		if g.Cell().IsInverter() {
			return br.Gate
		}
	}
	return netlist.InvalidNode
}
