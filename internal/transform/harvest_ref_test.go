package transform

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

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
// per branch pin.
func referenceGenerate(nl *netlist.Netlist, pm *power.Model, cfg Config) []*Substitution {
	cfg.Normalize()
	sm := pm.Sim()
	g := &refGenerator{nl: nl, pm: pm, cfg: cfg, words: sm.Words(), tfo: make([]bool, nl.NumNodes()),
		cones: netlist.NewDeadCones(nl)}
	g.pool = nl.TopoOrder()
	if !cfg.DisableOS2 || !cfg.DisableOS3 {
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
	}
	if !cfg.DisableIS2 || !cfg.DisableIS3 {
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
	}
	return g.out
}

type refGenerator struct {
	nl    *netlist.Netlist
	pm    *power.Model
	cfg   Config
	pool  []netlist.NodeID
	words int
	tfo   []bool
	cones *netlist.DeadCones
	out   []*Substitution
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
		if count >= g.cfg.MaxPerTarget {
			return false
		}
		g.out = append(g.out, s)
		count++
		return true
	}
	if (t.isBranch() && !g.cfg.DisableIS2) || (!t.isBranch() && !g.cfg.DisableOS2) {
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
	}
	if (t.isBranch() && g.cfg.DisableIS3) || (!t.isBranch() && g.cfg.DisableOS3) {
		return
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
	if len(base) > g.cfg.MaxThreeBase {
		base = base[:g.cfg.MaxThreeBase]
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

// TestGenerateMatchesReference checks that the harvest lists exactly
// the candidates, in exactly the order, of the harvest it replaced, on
// random reconvergent netlists under several configurations (caps that
// cut targets short, class switches, a region filter), with a library
// that also has a cell shape the pair search skips, and on spla.
func TestGenerateMatchesReference(t *testing.T) {
	configs := []Config{
		{AllowInverted: true},
		{},
		{AllowInverted: true, MaxPerTarget: 5, MaxThreeBase: 4},
		{AllowInverted: true, DisableOS2: true, DisableIS3: true},
		{AllowInverted: true, DisableIS2: true, DisableOS3: true, MaxPerTarget: 12},
	}
	andn, err := cellib.NewCell("andn2", 1856, []cellib.Pin{{Name: "a", Cap: 1}, {Name: "b", Cap: 1}}, "O",
		logic.And(logic.Var(0), logic.Not(logic.Var(1))), 0.9, 0.12, 0)
	if err != nil {
		t.Fatal(err)
	}
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
		pm := power.Estimate(nl, power.Options{Words: 1 + trial%3})
		for ci, cfg := range configs {
			if ci == len(configs)-1 {
				cfg.TargetFilter = func(id netlist.NodeID) bool { return id%2 == 0 }
			}
			label := fmt.Sprintf("trial %d config %d", trial, ci)
			sameCandidates(t, label, Generate(nl, pm, cfg), referenceGenerate(nl, pm, cfg))
		}
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
	sameCandidates(t, "spla", got, referenceGenerate(nl, pm, cfg))
}
