package atpg

import "powder/internal/sim"

// FaultSim is a parallel-pattern single-fault simulator: it reuses the
// simulator's sample vectors and reports, per fault, whether any vector
// detects it (a primary output differs between the good and faulty
// circuit).
type FaultSim struct {
	s *sim.Simulator
}

// NewFaultSim wraps an already-run simulator.
func NewFaultSim(s *sim.Simulator) *FaultSim { return &FaultSim{s: s} }

// Detects reports whether any of the simulator's sample vectors detects
// the fault, and returns the per-word detection mask.
func (fs *FaultSim) Detects(f Fault) (bool, []uint64) {
	s := fs.s
	words := s.Words()
	forced := make([]uint64, words)
	if f.StuckAt1 {
		for w := range forced {
			forced[w] = ^uint64(0)
		}
	}
	var ov *sim.Overlay
	if f.IsBranch() {
		alt := make([]uint64, words)
		s.GateValueWithPin(f.BranchGate, f.BranchPin, forced, alt)
		ov = s.Hypothetical(f.BranchGate, alt)
	} else {
		ov = s.Hypothetical(f.Stem, forced)
	}
	mask := make([]uint64, words)
	copy(mask, ov.PODiff)
	return ov.AnyPODiff(), mask
}

// Coverage runs the fault list through the simulator and returns the
// detected count and the undetected faults.
func (fs *FaultSim) Coverage(faults []Fault) (detected int, undetected []Fault) {
	for _, f := range faults {
		hit, _ := fs.Detects(f)
		if hit {
			detected++
		} else {
			undetected = append(undetected, f)
		}
	}
	return detected, undetected
}
