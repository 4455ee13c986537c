package atpg

import (
	"fmt"

	"powder/internal/logic"
	"powder/internal/netlist"
)

// Verdict is the outcome of a permissibility check.
type Verdict int

const (
	// Aborted means the proof budget was exhausted; the paper treats this
	// exactly like a refutation (the substitution is not performed).
	Aborted Verdict = iota
	// Permissible means the substitution provably preserves all
	// primary-output functions.
	Permissible
	// NotPermissible means a distinguishing input vector exists.
	NotPermissible
)

func (v Verdict) String() string {
	switch v {
	case Permissible:
		return "permissible"
	case NotPermissible:
		return "not-permissible"
	}
	return "aborted"
}

// Source describes the substituting signal of a substitution:
// either an existing stem B (optionally inverted) for the 2-signal forms
// OS2/IS2, or the output of a new 2-input gate over stems B and C with
// truth table Gate for the 3-signal forms OS3/IS3.
type Source struct {
	B       netlist.NodeID
	InvertB bool
	// C is InvalidNode for 2-signal substitutions.
	C       netlist.NodeID
	InvertC bool
	// Gate is the new gate's 2-variable truth table (variable 0 = B,
	// variable 1 = C); ignored when C is InvalidNode.
	Gate logic.TT
}

// IsThree reports whether the source inserts a new gate.
func (s Source) IsThree() bool { return s.C != netlist.InvalidNode }

// effectiveTT folds the input inversions into the new gate's table.
func (s Source) effectiveTT() logic.TT {
	tt := s.Gate
	if s.InvertB {
		tt = flipInput(tt, 0)
	}
	if s.InvertC {
		tt = flipInput(tt, 1)
	}
	return tt
}

// flipInput returns the table of f with input i complemented.
func flipInput(tt logic.TT, i int) logic.TT {
	var out logic.TT
	out.N = tt.N
	for m := uint(0); m < 1<<uint(tt.N); m++ {
		if tt.Eval(m ^ (1 << uint(i))) {
			out.Bits |= 1 << uint64(m)
		}
	}
	return out
}

// CheckStats counts checker outcomes and the SAT effort they consumed.
type CheckStats struct {
	Checks      int
	Permissible int
	Refuted     int
	Aborted     int
	// Conflicts and Decisions sum the SAT solver work over all checks
	// (structural verdicts that never reach the solver contribute zero).
	Conflicts int64
	Decisions int64
	// VectorRefuted counts the refutations a stored counterexample vector
	// answered without a miter (included in Checks and Refuted).
	VectorRefuted int
}

// CheckDetail records the outcome and effort of one proof, for callers
// (the run ledger) that attribute SAT work to individual candidates.
type CheckDetail struct {
	Verdict Verdict
	// VectorRefuted marks a refutation by a stored counterexample vector.
	VectorRefuted bool
	Conflicts     int64
	Decisions     int64
	Seconds       float64
	// Budget is the conflict budget the proof ran under.
	Budget int64
}

// String renders the stats.
func (st CheckStats) String() string {
	s := fmt.Sprintf("checks=%d permissible=%d refuted=%d aborted=%d",
		st.Checks, st.Permissible, st.Refuted, st.Aborted)
	if st.Conflicts > 0 || st.Decisions > 0 {
		s += fmt.Sprintf(" conflicts=%d decisions=%d", st.Conflicts, st.Decisions)
	}
	return s
}
