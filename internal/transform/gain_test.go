package transform

import (
	"math/rand"
	"slices"
	"testing"

	"powder/internal/netlist"
	"powder/internal/power"
)

// referenceAB evaluates Eq. 3 and Eq. 4 from first principles: the dead
// cone is what Apply actually sweeps on a copy, and the new gate's signal
// probability comes from evaluating its truth table vector by vector.
func referenceAB(t *testing.T, nl *netlist.Netlist, pm *power.Model, s *Substitution) (gainAB, areaDelta float64) {
	t.Helper()
	cp := nl.Clone()
	sc := *s
	res, err := Apply(cp, &sc)
	if err != nil {
		t.Fatalf("apply %v: %v", s, err)
	}
	cone := slices.Clone(res.Removed)
	slices.Sort(cone)
	dead := map[netlist.NodeID]bool{}
	for _, id := range cone {
		dead[id] = true
	}
	var buf editBuf
	e, err := s.edit(nl, &buf)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0.0
	for _, b := range e.Moved {
		moved += nl.BranchCap(b)
	}
	pgA := 0.0
	if dead[s.A] {
		for _, id := range cone {
			pgA += nl.Load(id) * pm.TransitionProb(id)
			areaDelta -= nl.Node(id).Cell().Area
		}
		for _, id := range cone {
			n := nl.Node(id)
			for pin, f := range n.Fanins() {
				if !dead[f] {
					pgA += n.Cell().Pins[pin].Cap * pm.TransitionProb(f)
				}
			}
		}
	} else {
		pgA = moved * pm.TransitionProb(s.A)
	}
	eB := pm.TransitionProb(s.Src.B)
	pgB := -moved * eB
	switch {
	case s.Src.IsThree():
		sm := pm.Sim()
		bw, cw := sm.Value(s.Src.B), sm.Value(s.Src.C)
		ones := 0
		for v := 0; v < sm.NumVectors(); v++ {
			m := uint(bw[v/64]>>(v%64)&1 | (cw[v/64]>>(v%64)&1)<<1)
			if s.Src.Gate.Eval(m) {
				ones++
			}
		}
		eH := power.TransitionProbOf(float64(ones) / float64(sm.NumVectors()))
		eC := pm.TransitionProb(s.Src.C)
		pgB = -(s.NewCell.Pins[0].Cap*eB + s.NewCell.Pins[1].Cap*eC + moved*eH)
		areaDelta += s.NewCell.Area
	case s.Src.InvertB && s.Inv == InvAdd:
		inv := nl.Lib.Inverter()
		pgB = -(inv.Pins[0].Cap*eB + moved*eB)
		areaDelta += inv.Area
	case s.Src.InvertB && s.Inv == InvReuse:
		pgB = -moved * pm.TransitionProb(s.InvNode)
	}
	return pgA + pgB, areaDelta
}

// TestAnalyzeABMatchesReference pins AnalyzeAB bit for bit to the
// first-principles evaluation on every harvested candidate of random
// circuits, over all four substitution classes and both inverter plans,
// with exhaustive (small-input) and random (many-input) vector sets.
func TestAnalyzeABMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	byKind := map[Kind]int{}
	reuse := 0
	for trial := 0; trial < 16; trial++ {
		nIn := 5
		if trial%2 == 1 {
			nIn = 16 // above the exhaustive limit: random vectors
		}
		nl := randomNetlist(t, rng, nIn, 24)
		pm := power.Estimate(nl, power.Options{Words: 3})
		an := NewAnalyzer(nl, pm)
		for _, s := range Generate(nl, pm, Config{AllowInverted: true}) {
			an.AnalyzeAB(s)
			gain, area := referenceAB(t, nl, pm, s)
			if s.GainAB != gain || s.AreaDelta != area {
				t.Fatalf("trial %d %v: AB=%v area=%v, reference AB=%v area=%v",
					trial, s, s.GainAB, s.AreaDelta, gain, area)
			}
			byKind[s.Kind]++
			if s.Inv == InvReuse {
				reuse++
			}
		}
	}
	for _, k := range []Kind{OS2, IS2, OS3, IS3} {
		if byKind[k] < 10 {
			t.Errorf("only %d %v candidates checked", byKind[k], k)
		}
	}
	if reuse == 0 {
		t.Errorf("no inverter-reuse candidate checked")
	}
}

// TestAnalyzeABDoesNotAllocate: once the analyzer's buffers have grown to
// the netlist, PG_A+PG_B analysis allocates nothing.
func TestAnalyzeABDoesNotAllocate(t *testing.T) {
	nl := randomNetlist(t, rand.New(rand.NewSource(43)), 8, 40)
	pm := power.Estimate(nl, power.Options{})
	an := NewAnalyzer(nl, pm)
	cands := Generate(nl, pm, Config{AllowInverted: true})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	analyzeAll := func() {
		for _, s := range cands {
			an.AnalyzeAB(s)
		}
	}
	analyzeAll()
	if allocs := testing.AllocsPerRun(5, analyzeAll); allocs != 0 {
		t.Errorf("AnalyzeAB over %d candidates: %v allocations per pass, want 0", len(cands), allocs)
	}
}
