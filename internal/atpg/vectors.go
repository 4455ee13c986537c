package atpg

import (
	"math/bits"

	"powder/internal/netlist"
	"powder/internal/sim"
)

// vectorSim simulates the checker's netlist on the stored counterexample
// vectors: lane k of every word holds vector k, and lanes past the
// loaded count hold zeros that never refute. It is the filter the
// harvest runs on sample vectors, over vectors that each refuted some
// proof.
type vectorSim struct {
	s *sim.Simulator
	// loaded counts the vectors simulated, the first ones of the
	// checker's list.
	loaded int
	// src and obs are the rule's word buffers.
	src, obs []uint64
}

// sync simulates the vectors not yet loaded, starting over on a
// simulator with more words when they outgrow its lanes, and reports
// whether any vector is loaded.
func (v *vectorSim) sync(nl *netlist.Netlist, vectors [][]bool) bool {
	if v.loaded == len(vectors) {
		return v.loaded > 0
	}
	if v.s == nil || len(vectors) > 64*v.s.Words() {
		words := (len(vectors) + 63) / 64
		v.s = sim.New(nl, words)
		v.src, v.obs = make([]uint64, words), make([]uint64, words)
		v.loaded = 0
	}
	for k := v.loaded; k < len(vectors); k++ {
		w, bit := k/64, uint64(1)<<(k%64)
		for i, id := range nl.Inputs() {
			if vectors[k][i] {
				v.s.SetInputWord(id, w, v.s.Value(id)[w]|bit)
			}
		}
	}
	v.loaded = len(vectors)
	v.s.Run()
	return true
}

// refute returns the first loaded vector on which substituting src for
// stem a (branch nil) or for the branch changes a primary output, or -1.
// It is the harvest's per-vector rule, (A ^ S) & obs != 0: a source
// never lies in the fanout of what it replaces (that would close a
// cycle, which no proof permits either), so on a vector where A and S
// differ the substitution flips A alone, and some output changes exactly
// where that flip is observable. A vector it names is therefore a
// counterexample of the miter, and it refutes only what the proof would.
func (v *vectorSim) refute(a netlist.NodeID, branch *netlist.Branch, src Source) int {
	s := v.s
	b := s.Value(src.B)
	switch {
	case src.IsThree():
		src.effectiveTT().Eval2Words(b, s.Value(src.C), v.src)
	case src.InvertB:
		for w := range b {
			v.src[w] = ^b[w]
		}
	default:
		copy(v.src, b)
	}
	var obs []uint64
	if branch == nil {
		obs = s.StemObs(a)
	} else {
		s.BranchObs(branch.Gate, branch.Pin, v.obs)
		obs = v.obs
	}
	av := s.Value(a)
	for w := 0; w*64 < v.loaded; w++ {
		d := (av[w] ^ v.src[w]) & obs[w]
		if rest := v.loaded - w*64; rest < 64 {
			d &= 1<<rest - 1
		}
		if d != 0 {
			return w*64 + bits.TrailingZeros64(d)
		}
	}
	return -1
}
