package transform

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/synth"
)

// referenceGenerate is the harvest Generate replaced, kept as the
// reference: full-cone observability propagation per target, every
// 2-input cell of the library classified and its base set sorted on its
// own, the XOR base rebuilt per cell and target, and the TFO marked once
// per branch pin. It also returns how often its caps cut the harvest.
func referenceGenerate(nl *netlist.Netlist, pm *power.Model, cfg Config) ([]*Substitution, refCuts) {
	sm := pm.Sim()
	g := &refGenerator{nl: nl, pm: pm, cfg: cfg, words: sm.Words(), tfo: make([]bool, nl.NumNodes()),
		cones: netlist.NewDeadCones(nl)}
	g.pool = nl.TopoOrder()
	for _, a := range g.pool {
		n := nl.Node(a)
		if n.Kind() != netlist.KindGate || n.NumFanouts() == 0 ||
			(cfg.TargetFilter != nil && !cfg.TargetFilter(a)) {
			continue
		}
		obs := sm.StemObservability(a)
		touched := nl.MarkTFO(a, g.tfo)
		g.tfo[a] = true
		g.cones.Stem(a)
		g.target(&targetCtx{a: a, g: netlist.InvalidNode, pin: -1, obs: obs, tfo: g.tfo, av: sm.Value(a)})
		g.tfo[a] = false
		for _, id := range touched {
			g.tfo[id] = false
		}
	}
	for _, gid := range g.pool {
		n := nl.Node(gid)
		if n.Kind() != netlist.KindGate || (cfg.TargetFilter != nil && !cfg.TargetFilter(gid)) {
			continue
		}
		for pin, drv := range n.Fanins() {
			if nl.Node(drv).NumFanouts() < 2 {
				continue
			}
			obs := sm.BranchObservability(gid, pin)
			touched := nl.MarkTFO(gid, g.tfo)
			g.tfo[gid] = true
			g.cones.Branch(drv, netlist.Branch{Gate: gid, Pin: pin})
			g.target(&targetCtx{a: drv, g: gid, pin: pin, obs: obs, tfo: g.tfo, av: sm.Value(drv)})
			g.tfo[gid] = false
			for _, id := range touched {
				g.tfo[id] = false
			}
		}
	}
	return g.out, g.cuts
}

// refCuts counts the reference harvest's cuts: targets whose candidates
// ran past maxPerTarget, and base sets longer than maxThreeBase.
type refCuts struct{ perTarget, threeBase int }

type refGenerator struct {
	nl    *netlist.Netlist
	pm    *power.Model
	cfg   Config
	pool  []netlist.NodeID
	words int
	tfo   []bool
	cones *netlist.DeadCones
	out   []*Substitution
	cuts  refCuts
}

func (g *refGenerator) sourceOK(t *targetCtx, b netlist.NodeID) bool {
	if b == t.a && !t.isBranch() {
		return false
	}
	return !t.tfo[b]
}

// holds reports whether f(val(b)[w], val(c)[w]) equals the target on
// every observable sample.
func (g *refGenerator) holds(t *targetCtx, f func(w int) uint64) bool {
	for w := 0; w < g.words; w++ {
		if (f(w)^t.av[w])&t.obs[w] != 0 {
			return false
		}
	}
	return true
}

func (g *refGenerator) target(t *targetCtx) {
	sm := g.pm.Sim()
	count := 0
	add := func(s *Substitution) bool {
		if count >= maxPerTarget {
			g.cuts.perTarget++
			return false
		}
		g.out = append(g.out, s)
		count++
		return true
	}
	for _, b := range g.pool {
		if !g.sourceOK(t, b) || (t.isBranch() && b == t.a) {
			continue
		}
		bv := sm.Value(b)
		if g.holds(t, func(w int) uint64 { return bv[w] }) && !add(g.makeTwo(t, b, false)) {
			return
		}
		if g.cfg.AllowInverted && g.holds(t, func(w int) uint64 { return ^bv[w] }) && !add(g.makeTwo(t, b, true)) {
			return
		}
	}
	for _, cell := range g.nl.Lib.TwoInputCells() {
		if !g.threeForCell(t, cell, add) {
			return
		}
	}
}

func (g *refGenerator) threeForCell(t *targetCtx, cell *cellib.Cell, add func(*Substitution) bool) bool {
	sm := g.pm.Sim()
	tt := cell.TT
	var baseOK func(bv []uint64) bool
	var op func(x, y uint64) uint64
	all := func(f func(w int) bool) bool {
		for w := 0; w < g.words; w++ {
			if !f(w) {
				return false
			}
		}
		return true
	}
	switch {
	case tt.Equal(xorTT), tt.Equal(xnorTT):
		baseOK = func([]uint64) bool { return true }
		op = func(x, y uint64) uint64 { return x ^ y }
	case tt.Equal(andTT):
		baseOK = func(bv []uint64) bool { return all(func(w int) bool { return t.av[w]&^bv[w]&t.obs[w] == 0 }) }
		op = func(x, y uint64) uint64 { return x & y }
	case tt.Equal(orTT):
		baseOK = func(bv []uint64) bool { return all(func(w int) bool { return bv[w]&^t.av[w]&t.obs[w] == 0 }) }
		op = func(x, y uint64) uint64 { return x | y }
	case tt.Equal(nandTT):
		baseOK = func(bv []uint64) bool { return all(func(w int) bool { return ^t.av[w]&^bv[w]&t.obs[w] == 0 }) }
		op = func(x, y uint64) uint64 { return x & y }
	case tt.Equal(norTT):
		baseOK = func(bv []uint64) bool { return all(func(w int) bool { return bv[w]&t.av[w]&t.obs[w] == 0 }) }
		op = func(x, y uint64) uint64 { return x | y }
	default:
		return true
	}
	invert := tt.Equal(nandTT) || tt.Equal(norTT) || tt.Equal(xnorTT)
	var base []netlist.NodeID
	for _, b := range g.pool {
		if g.sourceOK(t, b) && baseOK(sm.Value(b)) {
			base = append(base, b)
		}
	}
	sort.Slice(base, func(i, j int) bool {
		return g.pm.TransitionProb(base[i]) < g.pm.TransitionProb(base[j])
	})
	if len(base) > maxThreeBase {
		g.cuts.threeBase++
		base = base[:maxThreeBase]
	}
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			bv, cv := sm.Value(base[i]), sm.Value(base[j])
			ok := g.holds(t, func(w int) uint64 {
				x := op(bv[w], cv[w])
				if invert {
					x = ^x
				}
				return x
			})
			if ok && !add(g.makeThree(t, base[i], base[j], cell)) {
				return false
			}
		}
	}
	return true
}

func (g *refGenerator) makeTwo(t *targetCtx, b netlist.NodeID, inverted bool) *Substitution {
	s := &Substitution{A: t.a, G: t.g, Pin: t.pin, Src: atpg.Source{B: b, InvertB: inverted, C: netlist.InvalidNode}, Kind: OS2}
	if t.isBranch() {
		s.Kind = IS2
	}
	if inverted {
		s.Inv = InvAdd
		if inv := FindInverter(g.nl, b); inv != netlist.InvalidNode && g.sourceOK(t, inv) && !g.cones.Contains(inv) {
			s.Inv, s.InvNode = InvReuse, inv
		}
	}
	return s
}

func (g *refGenerator) makeThree(t *targetCtx, b, c netlist.NodeID, cell *cellib.Cell) *Substitution {
	s := &Substitution{A: t.a, G: t.g, Pin: t.pin, Src: atpg.Source{B: b, C: c, Gate: cell.TT}, NewCell: cell, Kind: OS3}
	if t.isBranch() {
		s.Kind = IS3
	}
	return s
}

// sameCandidates fails unless got and want list the same substitutions
// in the same order.
func sameCandidates(t *testing.T, label string, got, want []*Substitution) {
	t.Helper()
	key := func(s *Substitution) string {
		return fmt.Sprintf("%v %d %d %d %+v %v %d %p", s.Kind, s.A, s.G, s.Pin, s.Src, s.Inv, s.InvNode, s.NewCell)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if key(got[i]) != key(want[i]) {
			t.Fatalf("%s: candidate %d is %s, reference %s", label, i, key(got[i]), key(want[i]))
		}
	}
}

// activities are the input activities the harvest is compared under:
// uniform (exhaustive vectors up to the exhaustive limit), skewed (every
// input at probability .05 or .95) and pinned (the probabilities and
// toggle densities a VCD of a biased stimulus binds, which move E and so
// the base order).
var activities = []string{"uniform", "skewed", "pinned"}

// activityOptions returns the power options of activity act for nl.
func activityOptions(t testing.TB, nl *netlist.Netlist, act string, words int, seed int64) power.Options {
	t.Helper()
	opts := power.Options{Words: words}
	switch act {
	case "skewed":
		rng := rand.New(rand.NewSource(seed))
		opts.InputProbs = make([]float64, len(nl.Inputs()))
		for i := range opts.InputProbs {
			opts.InputProbs[i] = []float64{.05, .95}[rng.Intn(2)]
		}
	case "pinned":
		probs := make([]float64, len(nl.Inputs()))
		levels := []float64{.05, .1, .2, .5, .8, .9, .95}
		rng := rand.New(rand.NewSource(seed))
		for i := range probs {
			probs[i] = levels[rng.Intn(len(levels))]
		}
		var buf bytes.Buffer
		if _, err := activity.DumpVCD(&buf, nl, activity.DumpOptions{Seed: seed, InputProbs: probs}); err != nil {
			t.Fatal(err)
		}
		prof, err := activity.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(nl.Inputs()))
		for i, id := range nl.Inputs() {
			names[i] = nl.Node(id).Name()
		}
		b, err := prof.Bind(names)
		if err != nil {
			t.Fatal(err)
		}
		opts.InputProbs, opts.InputToggles = b.Probs, b.Toggles
	}
	return opts
}

// halves counts harvest targets by which packed halves of their
// observable samples are empty: no observable one (every source passes
// classAnd and classNor), no observable zero (classOr and classNand), or
// neither (an unobservable target, where all four class bits pass).
type halves struct{ noOnes, noZeros, neither int }

// count adds the targets of nl, stems and branches as Generate visits
// them, from the reference observability.
func (h *halves) count(nl *netlist.Netlist, pm *power.Model) {
	sm := pm.Sim()
	tally := func(obs, av []uint64) {
		var ones, zeros uint64
		for w, o := range obs {
			ones |= av[w] & o
			zeros |= ^av[w] & o
		}
		switch {
		case ones == 0 && zeros == 0:
			h.neither++
		case ones == 0:
			h.noOnes++
		case zeros == 0:
			h.noZeros++
		}
	}
	for _, id := range nl.TopoOrder() {
		n := nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		if n.NumFanouts() > 0 {
			tally(sm.StemObservability(id), sm.Value(id))
		}
		for pin, drv := range n.Fanins() {
			if nl.Node(drv).NumFanouts() >= 2 {
				tally(sm.BranchObservability(id, pin), sm.Value(drv))
			}
		}
	}
}

// TestGenerateMatchesReference checks that the harvest lists exactly
// the candidates, in exactly the order, of the harvest it replaced, on
// random reconvergent netlists with and without inverted sources and
// under a region filter, with a library that also has a cell shape the
// pair search skips, under uniform, skewed and VCD-pinned activity; on
// netlists where most transition probabilities tie, so that base order
// among equal E shows; and on spla. The random netlists must reach both
// caps, and the skewed runs targets with an empty half of observable
// samples.
func TestGenerateMatchesReference(t *testing.T) {
	configs := []Config{
		{AllowInverted: true},
		{},
		{AllowInverted: true, TargetFilter: func(id netlist.NodeID) bool { return id%2 == 0 }},
	}
	andn, err := cellib.NewCell("andn2", 1856, []cellib.Pin{{Name: "a", Cap: 1}, {Name: "b", Cap: 1}}, "O",
		logic.And(logic.Var(0), logic.Not(logic.Var(1))), 0.9, 0.12, 0)
	if err != nil {
		t.Fatal(err)
	}
	var h halves
	var cuts refCuts
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(1600 + trial)))
		nIn := 5
		if trial%2 == 1 {
			nIn = 15 // above the exhaustive limit: random vectors
		}
		nl := randomNetlist(t, rng, nIn, 30+rng.Intn(30))
		if trial%3 == 0 {
			nl.Lib.MustAdd(andn)
		}
		for _, act := range activities {
			// Biased runs use enough words that a packed list spans several
			// 8-word blocks of the source scans.
			words := 1 + trial%3
			if act != "uniform" {
				words = 12 + 4*(trial%3)
			}
			pm := power.Estimate(nl, activityOptions(t, nl, act, words, int64(trial)))
			if act == "skewed" {
				h.count(nl, pm)
			}
			for ci, cfg := range configs {
				want, c := referenceGenerate(nl, pm, cfg)
				cuts.perTarget += c.perTarget
				cuts.threeBase += c.threeBase
				sameCandidates(t, fmt.Sprintf("trial %d %s config %d", trial, act, ci), Generate(nl, pm, cfg), want)
			}
		}
	}
	t.Logf("reference cuts: %d targets at maxPerTarget, %d base sets at maxThreeBase", cuts.perTarget, cuts.threeBase)
	if cuts.perTarget == 0 || cuts.threeBase == 0 {
		t.Errorf("reference cuts: %d targets at maxPerTarget, %d base sets at maxThreeBase; want each > 0",
			cuts.perTarget, cuts.threeBase)
	}
	t.Logf("skewed targets: %d without an observable one, %d without an observable zero, %d unobservable",
		h.noOnes, h.noZeros, h.neither)
	if h.noOnes == 0 || h.noZeros == 0 || h.neither == 0 {
		t.Errorf("skewed targets: %d without an observable one, %d without an observable zero, %d unobservable; want each > 0",
			h.noOnes, h.noZeros, h.neither)
	}

	// Ties: base sets of more than 12 sources are partitioned by pdqsort
	// rather than insertion-sorted.
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(2300 + trial)))
		nl := tieNetlist(t, rng, 8, 40)
		pm := power.Estimate(nl, power.Options{Words: 4}) // 256 vectors: exhaustive
		ties, longest := map[float64]int{}, 0
		for _, id := range nl.TopoOrder() {
			e := pm.TransitionProb(id)
			ties[e]++
			if ties[e] > longest {
				longest = ties[e]
			}
		}
		if longest <= 12 {
			t.Fatalf("ties trial %d: at most %d sources share an E", trial, longest)
		}
		cfg := Config{AllowInverted: true}
		want, _ := referenceGenerate(nl, pm, cfg)
		sameCandidates(t, fmt.Sprintf("ties trial %d", trial), Generate(nl, pm, cfg), want)
	}

	spec, err := circuits.ByName("spla")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Estimate(nl, power.Options{})
	cfg := Config{AllowInverted: true}
	got := Generate(nl, pm, cfg)
	if len(got) == 0 {
		t.Fatal("spla: no candidates")
	}
	want, _ := referenceGenerate(nl, pm, cfg)
	sameCandidates(t, "spla", got, want)
}

// tieNetlist builds a netlist over nIn inputs whose gates come in
// complementary pairs: each of nPairs random fanin pairs drives both an
// AND2 and a NAND2, or both an OR2 and a NOR2, and every input drives an
// inverter. Under exhaustive vectors the two gates of a pair have
// probabilities p and 1-p, exact dyadic fractions, so their E = 2p(1-p)
// tie exactly, as do the inputs and their inverters (E = 1/2). Every
// gate left without a fanout drives an output.
func tieNetlist(t testing.TB, rng *rand.Rand, nIn, nPairs int) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("ties", cellib.Lib2())
	var pool []netlist.NodeID
	add := func(cell string, fanins ...netlist.NodeID) {
		id, err := nl.AddGate("", nl.Lib.Cell(cell), fanins)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	for i := 0; i < nIn; i++ {
		id, err := nl.AddInput(logic.VarName(i))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	for i := 0; i < nIn; i++ {
		add("inv", pool[i])
	}
	for i := 0; i < nPairs; i++ {
		x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			add("and2", x, y)
			add("nand2", x, y)
		} else {
			add("or2", x, y)
			add("nor2", x, y)
		}
	}
	for _, id := range pool {
		if n := nl.Node(id); n.Kind() == netlist.KindGate && n.NumFanouts() == 0 {
			if err := nl.AddOutput(fmt.Sprintf("o%d", id), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nl
}

// FuzzGenerate checks the harvest against the reference on a seeded
// random netlist under fuzzed sizes, word count, activity and Config.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(1), uint8(0), uint8(0x01))
	f.Add(int64(2), uint8(15), uint8(50), uint8(19), uint8(1), uint8(0x01))
	f.Add(int64(3), uint8(9), uint8(40), uint8(3), uint8(2), uint8(0x03))
	f.Add(int64(4), uint8(3), uint8(12), uint8(1), uint8(1), uint8(0x02))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, words, act, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		nl := randomNetlist(t, rng, 1+int(nIn%16), 1+int(nGates%60))
		opts := activityOptions(t, nl, activities[int(act)%len(activities)], 1+int(words%24), seed)
		pm := power.Estimate(nl, opts)
		cfg := Config{AllowInverted: flags&0x01 != 0}
		if flags&0x02 != 0 {
			cfg.TargetFilter = func(id netlist.NodeID) bool { return id%3 != 0 }
		}
		want, _ := referenceGenerate(nl, pm, cfg)
		sameCandidates(t, "fuzz", Generate(nl, pm, cfg), want)
	})
}
