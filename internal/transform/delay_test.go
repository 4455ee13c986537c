package transform

import (
	"math"
	"math/rand"
	"testing"

	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/sta"
)

// referenceDelayAfter is the delay confirmation DelayAfter replaced: the
// substitution applied to a clone, whose full timing analysis gives the
// delay. It fails exactly when Apply does.
func referenceDelayAfter(nl *netlist.Netlist, s *Substitution) (float64, *ApplyResult, error) {
	cp := nl.Clone()
	sCp := *s
	res, err := ApplySafe(cp, &sCp)
	if err != nil {
		return 0, nil, err
	}
	return sta.New(cp, 0).Delay(), res, nil
}

// whatIfNetlist builds a random mapped circuit for the what-if tests: a
// cell mix whose pin capacitances (0.9, 1.6, 1.7, 1.8, 2, 3.4) and primary
// output loads round differently when summed in different orders, gates
// fed twice by one signal, deep chains, primary outputs on internal
// signals that also feed gates, and, unless sweep is set, gates without
// fanout.
func whatIfNetlist(t testing.TB, rng *rand.Rand, nIn, nGates int, sweep bool) *netlist.Netlist {
	t.Helper()
	lib := cellib.Lib2()
	nl := netlist.New("whatif", lib)
	nl.POLoad = []float64{1, 1.3, 0.7}[rng.Intn(3)]
	var pool []netlist.NodeID
	for i := 0; i < nIn; i++ {
		id, err := nl.AddInput(logic.VarName(i))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	cells := []string{"inv", "invx2", "buf", "bufx2", "nand2", "nand2x2", "nor2", "and2x2", "or2", "xor2", "xor2x2", "aoi21", "nand3"}
	pick := func() netlist.NodeID {
		if rng.Intn(2) == 0 && len(pool) > 6 {
			return pool[len(pool)-1-rng.Intn(6)] // recent: deep paths
		}
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < nGates; i++ {
		cell := nl.Lib.Cell(cells[rng.Intn(len(cells))])
		fanins := make([]netlist.NodeID, cell.NumPins())
		for p := range fanins {
			fanins[p] = pick()
			if p > 0 && rng.Intn(5) == 0 {
				fanins[p] = fanins[p-1] // fed twice
			}
		}
		id, err := nl.AddGate("", cell, fanins)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	outs := 2 + rng.Intn(3)
	for i := 0; i < outs; i++ {
		d := pool[len(pool)-1-i]
		if i == outs-1 {
			d = pool[nIn+rng.Intn(len(pool)-nIn)] // often an internal signal
		}
		if err := nl.AddOutput(logic.VarName(20+i), d); err != nil {
			t.Fatal(err)
		}
	}
	if sweep {
		nl.SweepDead()
	}
	return nl
}

// cycleVariant returns a copy of s whose substituting signal lies in the
// transitive fanout of the gate s rewires, so that Apply must refuse it,
// or nil when that gate has no such fanout.
func cycleVariant(nl *netlist.Netlist, s *Substitution, rng *rand.Rand) *Substitution {
	root := netlist.InvalidNode
	if s.IsBranchSub() {
		if s.G == netlist.InvalidNode {
			return nil
		}
		root = s.G
	} else {
		for _, b := range nl.Node(s.A).Fanouts() {
			if !b.IsPO() {
				root = b.Gate
				break
			}
		}
		if root == netlist.InvalidNode {
			return nil
		}
	}
	tfo := []netlist.NodeID{root}
	for id := range nl.TFO(root) {
		tfo = append(tfo, id)
	}
	c := *s
	at := tfo[rng.Intn(len(tfo))]
	if c.Src.InvertB && c.Inv == InvReuse {
		c.InvNode = at
	} else {
		c.Src.B = at
	}
	return &c
}

// whatIfCoverage counts the shapes TestDelayAfterMatchesReference must
// meet.
type whatIfCoverage struct {
	kinds                   [4]int
	invAdd, invReuse        int
	poTarget, fedTwice      int
	deepCone, danglingSwept int
	refused, checked        int
	increased, decreased    int
}

// checkDelayAfter compares DelayAfter with the reference for s on nl and
// its analysis a, and tallies what s covers.
func checkDelayAfter(t *testing.T, nl *netlist.Netlist, a *sta.Analysis, s *Substitution, cov *whatIfCoverage) {
	t.Helper()
	got, ok := DelayAfter(nl, s, a)
	want, res, err := referenceDelayAfter(nl, s)
	if ok != (err == nil) {
		t.Fatalf("%v: DelayAfter ok=%v, Apply error %v", s, ok, err)
	}
	cov.checked++
	if err != nil {
		cov.refused++
		return
	}
	if got != want {
		t.Fatalf("%v: DelayAfter %v (%#x), reference %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	switch {
	case want > a.Delay():
		cov.increased++
	case want < a.Delay():
		cov.decreased++
	}
	cov.kinds[s.Kind]++
	if s.Src.InvertB && s.Inv == InvAdd {
		cov.invAdd++
	}
	if s.Src.InvertB && s.Inv == InvReuse {
		cov.invReuse++
	}
	if (!s.IsBranchSub() && nl.IsPODriver(s.A)) || (s.IsBranchSub() && s.G == netlist.InvalidNode) {
		cov.poTarget++
	}
	seen := map[netlist.NodeID]bool{}
	for _, b := range nl.Node(s.A).Fanouts() {
		if !b.IsPO() && seen[b.Gate] && (!s.IsBranchSub() || b.Gate == s.G) {
			cov.fedTwice++
		}
		seen[b.Gate] = true
	}
	removed := map[netlist.NodeID]bool{}
	for _, id := range res.Removed {
		removed[id] = true
	}
	deep, dangling := false, false
	for _, id := range res.Removed {
		if int(id) >= nl.NumNodes() {
			continue // the gate the apply inserted
		}
		if nl.Node(id).NumFanouts() == 0 {
			dangling = true
		}
		for _, f := range nl.Node(id).Fanins() {
			if removed[f] {
				deep = true
			}
		}
	}
	if deep {
		cov.deepCone++
	}
	if dangling {
		cov.danglingSwept++
	}
}

// TestDelayAfterMatchesReference checks the what-if against the clone,
// apply and full analysis it replaced: the same float64, bit for bit, and
// "not ok" exactly when Apply fails, over every candidate of random
// netlists, with and without gates that already have no fanout, plus a
// variant of every fourth candidate that would close a cycle.
func TestDelayAfterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var cov whatIfCoverage
	for trial := 0; trial < 24; trial++ {
		nl := whatIfNetlist(t, rng, 3+rng.Intn(6), 10+rng.Intn(40), trial%3 != 0)
		pm := power.Estimate(nl, power.Options{})
		a := sta.New(nl, 0)
		for k, s := range Generate(nl, pm, Config{AllowInverted: true}) {
			checkDelayAfter(t, nl, a, s, &cov)
			if k%4 == 0 {
				if c := cycleVariant(nl, s, rng); c != nil {
					checkDelayAfter(t, nl, a, c, &cov)
				}
			}
		}
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"OS2": cov.kinds[OS2], "IS2": cov.kinds[IS2], "OS3": cov.kinds[OS3], "IS3": cov.kinds[IS3],
		"InvAdd": cov.invAdd, "InvReuse": cov.invReuse,
		"a target driving a primary output": cov.poTarget,
		"a gate fed twice by the target":    cov.fedTwice,
		"a dead cone at least 2 deep":       cov.deepCone,
		"a gate that already had no fanout": cov.danglingSwept,
		"a cycle":                           cov.refused,
		"a delay increase":                  cov.increased,
		"a delay decrease":                  cov.decreased,
	} {
		if n == 0 {
			t.Errorf("no candidate covered %s", name)
		}
	}
}

// TestDelayAfterAllocatesNothing checks that a what-if, after the first
// one on an analysis, allocates nothing.
func TestDelayAfterAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := whatIfNetlist(t, rng, 6, 40, true)
	pm := power.Estimate(nl, power.Options{})
	a := sta.New(nl, 0)
	cands := Generate(nl, pm, Config{AllowInverted: true})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	DelayAfter(nl, cands[0], a)
	for _, s := range cands {
		if allocs := testing.AllocsPerRun(5, func() { DelayAfter(nl, s, a) }); allocs != 0 {
			t.Fatalf("%v: DelayAfter allocates %v times a call", s, allocs)
		}
	}
}

// FuzzDelayAfter checks DelayAfter and DelayOK against the reference on a
// seeded random netlist, one of its candidates (or that candidate's cycle
// variant), and a constraint slack.
func FuzzDelayAfter(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(17), uint8(5), uint8(1))
	f.Add(int64(3), uint16(40), uint8(20), uint8(2))
	f.Add(int64(4), uint16(3), uint8(100), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, idx uint16, slack, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		nl := whatIfNetlist(t, rng, 2+rng.Intn(8), 5+rng.Intn(50), flags&1 == 0)
		pm := power.Estimate(nl, power.Options{})
		cands := Generate(nl, pm, Config{AllowInverted: true})
		if len(cands) == 0 {
			return
		}
		s := cands[int(idx)%len(cands)]
		if flags&2 != 0 {
			if c := cycleVariant(nl, s, rng); c != nil {
				s = c
			}
		}
		a := sta.New(nl, sta.New(nl, 0).Delay()*(1+float64(slack)/100))
		var cov whatIfCoverage
		checkDelayAfter(t, nl, a, s, &cov)
		want, _, err := referenceDelayAfter(nl, s)
		wantOK := delayOKLocal(nl, s, a) && err == nil && want <= a.Constraint()+delayEps
		if got := DelayOK(nl, s, a); got != wantOK {
			t.Fatalf("%v: DelayOK %v, reference %v", s, got, wantOK)
		}
	})
}
