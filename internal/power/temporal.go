package power

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"powder/internal/netlist"
	"powder/internal/sim"
)

// The paper computes E(i) = 2 p(i) (1-p(i)) from signal probabilities
// under temporal independence of the inputs, and notes that estimators
// with temporal/spatial correlation could be substituted. TemporalEstimate
// is such an estimator: primary inputs are lag-one Markov chains with a
// per-input signal probability and toggle rate, and E(i) of every signal
// is measured directly as the fraction of consecutive-vector pairs on
// which it changes. Correlations the independence model cannot see (e.g.
// an XOR of two synchronously toggling inputs never toggles) are captured
// exactly.

// TemporalReport holds directly measured transition probabilities.
type TemporalReport struct {
	// E[id] is the measured transition probability of node id.
	E []float64
	// Total is sum C(i)*E(i) under the measured activities.
	Total float64
	// Pairs is the number of vector pairs actually simulated (after the
	// words default applies), never the caller's request. Each measured
	// E is a binomial mean over Pairs trials with standard error
	// sqrt(E(1-E)/Pairs) — at the default 4096 pairs, about ±0.008 for a
	// mid-range signal; callers passing tiny words get proportionally
	// noisier estimates and should read Pairs before trusting them.
	Pairs int
}

// TemporalEstimate measures switching activity with correlated inputs.
// probs gives the per-input signal probability (nil = 0.5); toggles the
// per-input probability that the input flips between consecutive vectors
// (nil everywhere, or NaN per entry = the independence-equivalent
// 2p(1-p), so a partially matched activity binding plugs in directly).
// words <= 0 defaults to 64 (4096 pairs); the report's Pairs field
// records what was actually simulated and bounds the sampling variance.
func TemporalEstimate(nl *netlist.Netlist, words int, seed int64, probs, toggles []float64) (*TemporalReport, error) {
	if words <= 0 {
		words = 64
	}
	ins := nl.Inputs()
	if probs != nil && len(probs) != len(ins) {
		return nil, fmt.Errorf("power: %d probabilities for %d inputs", len(probs), len(ins))
	}
	if toggles != nil && len(toggles) != len(ins) {
		return nil, fmt.Errorf("power: %d toggle rates for %d inputs", len(toggles), len(ins))
	}
	for i, p := range probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("power: input %d probability %g outside [0,1]", i, p)
		}
	}
	for i, tgl := range toggles {
		if !math.IsNaN(tgl) && (tgl < 0 || tgl > 1) {
			return nil, fmt.Errorf("power: input %d toggle rate %g outside [0,1]", i, tgl)
		}
	}

	s0 := sim.New(nl, words)
	s1 := sim.New(nl, words)
	rng := rand.New(rand.NewSource(seed))

	// Generate v0 per-bit by probability, then v1 by flipping with the
	// toggle rate (a stationary lag-one Markov chain when toggle is
	// consistent with p; arbitrary rates are allowed for what-if studies).
	for i, id := range ins {
		p := 0.5
		if probs != nil {
			p = probs[i]
		}
		tgl := 2 * p * (1 - p)
		if toggles != nil && !math.IsNaN(toggles[i]) {
			tgl = toggles[i]
		}
		for w := 0; w < words; w++ {
			var w0, w1 uint64
			for b := 0; b < 64; b++ {
				v0 := rng.Float64() < p
				v1 := v0
				if rng.Float64() < tgl {
					v1 = !v1
				}
				if v0 {
					w0 |= 1 << uint(b)
				}
				if v1 {
					w1 |= 1 << uint(b)
				}
			}
			s0.SetInputWord(id, w, w0)
			s1.SetInputWord(id, w, w1)
		}
	}
	s0.Run()
	s1.Run()

	rep := &TemporalReport{E: make([]float64, nl.NumNodes()), Pairs: words * 64}
	nl.LiveNodes(func(n *netlist.Node) {
		id := n.ID()
		v0, v1 := s0.Value(id), s1.Value(id)
		diff := 0
		for w := range v0 {
			diff += bits.OnesCount64((v0[w] ^ v1[w]) & s0.ValidMask(w))
		}
		e := float64(diff) / float64(rep.Pairs)
		rep.E[id] = e
		rep.Total += nl.Load(id) * e
	})
	return rep, nil
}
