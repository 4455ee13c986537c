package atpg_test

import (
	"math/rand"
	"testing"

	"powder/internal/atpg"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/sim"
	"powder/internal/transform"
)

// distinguishes reports whether the input vector tells nl apart from nl
// with s applied, simulating both on the vector alone.
func distinguishes(t *testing.T, nl *netlist.Netlist, s *transform.Substitution, vec []bool) bool {
	t.Helper()
	rewired := nl.Clone()
	sc := *s
	if _, err := transform.Apply(rewired, &sc); err != nil {
		t.Fatalf("%v: apply: %v", s, err)
	}
	outs := func(x *netlist.Netlist) []uint64 {
		sm := sim.New(x, 1)
		for i, id := range x.Inputs() {
			if vec[i] {
				sm.SetInputWord(id, 0, 1)
			}
		}
		sm.Run()
		var v []uint64
		for _, po := range x.Outputs() {
			v = append(v, sm.Value(po.Driver)[0]&1)
		}
		return v
	}
	x, y := outs(nl), outs(rewired)
	for i := range x {
		if x[i] != y[i] {
			return true
		}
	}
	return false
}

// FuzzVectorRefutes checks the checker's counterexample filter on the
// candidates transform.Generate harvests from a random circuit under
// random input probabilities and one sample word, a filter loose enough
// that proofs refute many of them. Every candidate the stored vectors
// refute must be refuted by a fresh SAT check, and by the vector the
// checker names. After a SAT refutation, a checker holding only its
// counterexample must refute the same candidate, and of all candidates
// exactly those the vector tells apart on a rewired clone.
func FuzzVectorRefutes(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nl := atpg.RandomNetlist(t, rng, 3+rng.Intn(8), 8+rng.Intn(32))
		nl.SweepDead()
		probs := make([]float64, len(nl.Inputs()))
		for i := range probs {
			probs[i] = []float64{.1, .3, .5, .7, .9}[rng.Intn(5)]
		}
		pm := power.Estimate(nl, power.Options{Words: 1, Seed: seed + 1, InputProbs: probs})
		cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
		cands = cands[:min(len(cands), 120)]

		store := atpg.NewIncrementalChecker(nl)
		singles := 0
		for _, s := range cands {
			v, _ := checkSub(store, s)
			cex := store.Counterexample()
			switch {
			case store.LastCheck.VectorRefuted:
				fresh := atpg.NewIncrementalChecker(nl)
				fresh.Budget = 0
				if fv, _ := checkSub(fresh, s); fv != atpg.NotPermissible {
					t.Fatalf("%v: refuted by a stored vector, a fresh SAT check says %v", s, fv)
				}
				if !distinguishes(t, nl, s, cex) {
					t.Fatalf("%v: the refuting vector %v does not tell the rewired clone apart", s, cex)
				}
			case v == atpg.NotPermissible && cex != nil && singles < 2:
				singles++
				for _, o := range cands {
					one := atpg.NewIncrementalChecker(nl)
					one.Vectors = [][]bool{cex}
					checkSub(one, o)
					want := distinguishes(t, nl, o, cex)
					if got := one.LastCheck.VectorRefuted; got != want {
						t.Fatalf("counterexample %v of %v: refutes %v: %t, tells the rewired clone apart: %t", cex, s, o, got, want)
					}
					if o == s && !want {
						t.Fatalf("%v: its SAT counterexample %v does not tell the rewired clone apart", s, cex)
					}
				}
			}
		}
	})
}
