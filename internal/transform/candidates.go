package transform

import (
	"context"
	"slices"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/power"
)

// Config controls candidate generation.
type Config struct {
	// AllowInverted additionally proposes substitutions by inverted
	// signals (realized by inverter reuse or insertion).
	AllowInverted bool
	// TargetFilter, when non-nil, restricts harvesting to targets it
	// accepts: stem substitutions of node A require TargetFilter(A), and
	// branch substitutions into gate G require TargetFilter(G). The
	// candidate *source* pool stays global. The region engine hands
	// each region worker the filter of its region; disjoint filters
	// partition the full candidate set.
	TargetFilter func(netlist.NodeID) bool
}

const (
	// maxThreeBase caps, per target, the base-signal set of each 2-input
	// cell shape in the 3-signal pair search.
	maxThreeBase = 16
	// maxPerTarget caps how many candidates one substituted signal may
	// contribute.
	maxPerTarget = 48
)

// Generate computes the candidate substitution set of the current netlist
// using simulation signatures filtered by per-sample observability
// don't-care masks: a candidate source must agree with the substituted
// signal on every sample vector where that signal is observable at a
// primary output. Survivors still require the exact ATPG check before
// being applied; this is the get_candidate_substitutions step of the
// paper's Figure 5.
func Generate(nl *netlist.Netlist, pm *power.Model, cfg Config) []*Substitution {
	return GenerateCtx(context.Background(), nl, pm, cfg)
}

// GenerateCtx is Generate under a "harvest" span of ctx, which carries
// the candidate counts: candidates, the source pool, and one count per
// class (os2, is2, os3, is3).
func GenerateCtx(ctx context.Context, nl *netlist.Netlist, pm *power.Model, cfg Config) []*Substitution {
	_, sp := trace.StartSpan(ctx, "harvest")
	defer sp.End()
	sm := pm.Sim()
	g := &generator{nl: nl, pm: pm, cfg: cfg, tfoMask: make([]bool, nl.NumNodes()),
		cones: netlist.NewDeadCones(nl), xorBase: make([][]netlist.NodeID, nl.NumNodes())}
	// Candidate source pool: all live stems, in topological order for
	// determinism.
	g.pool = nl.TopoOrder()
	g.class = make([]uint8, len(g.pool))
	for _, cell := range nl.Lib.TwoInputCells() {
		if sh := shapeOf(cell.TT); sh != shapeNone {
			g.cells = append(g.cells, shapedCell{cell, sh})
		}
	}

	// Stem targets (OS2/OS3).
	for _, a := range g.pool {
		n := nl.Node(a)
		if n.Kind() != netlist.KindGate || n.NumFanouts() == 0 {
			continue
		}
		if cfg.TargetFilter != nil && !cfg.TargetFilter(a) {
			continue
		}
		touched := g.markTFO(a)
		g.cones.Stem(a)
		g.target(&targetCtx{
			a: a, g: netlist.InvalidNode, pin: -1,
			obs: sm.StemObs(a), tfo: g.tfoMask,
			av: sm.Value(a),
		})
		g.clearTFO(a, touched)
	}

	// Branch targets (IS2/IS3): every gate input pin of a multi-fanout
	// stem (single-fanout branches coincide with the stem substitution).
	obs := make([]uint64, sm.Words())
	for _, gid := range g.pool {
		n := nl.Node(gid)
		if n.Kind() != netlist.KindGate {
			continue
		}
		if cfg.TargetFilter != nil && !cfg.TargetFilter(gid) {
			continue
		}
		var touched []netlist.NodeID
		marked := false
		for pin, drv := range n.Fanins() {
			if nl.Node(drv).NumFanouts() < 2 {
				continue
			}
			if !marked {
				touched, marked = g.markTFO(gid), true
			}
			sm.BranchObs(gid, pin, obs)
			g.cones.Branch(drv, netlist.Branch{Gate: gid, Pin: pin})
			g.target(&targetCtx{
				a: drv, g: gid, pin: pin,
				obs: obs, tfo: g.tfoMask,
				av: sm.Value(drv),
			})
		}
		if marked {
			g.clearTFO(gid, touched)
		}
	}
	harvested(sp, g.out, len(g.pool))
	return g.out
}

// markTFO marks root and its transitive fanout in tfoMask, the sources
// that would close a cycle, and returns the marked fanout for clearTFO.
func (g *generator) markTFO(root netlist.NodeID) []netlist.NodeID {
	touched := g.nl.MarkTFO(root, g.tfoMask)
	g.tfoMask[root] = true
	return touched
}

// clearTFO undoes markTFO.
func (g *generator) clearTFO(root netlist.NodeID, touched []netlist.NodeID) {
	g.tfoMask[root] = false
	for _, id := range touched {
		g.tfoMask[id] = false
	}
}

// harvested records one Generate call's candidate counts on its harvest
// span.
func harvested(sp *trace.Span, cands []*Substitution, pool int) {
	var byKind [IS3 + 1]int
	for _, s := range cands {
		byKind[s.Kind]++
	}
	sp.SetAttr("candidates", len(cands))
	sp.SetAttr("pool", pool)
	sp.SetAttr("os2", byKind[OS2])
	sp.SetAttr("is2", byKind[IS2])
	sp.SetAttr("os3", byKind[OS3])
	sp.SetAttr("is3", byKind[IS3])
}

type targetCtx struct {
	a   netlist.NodeID // substituted stem (or branch driver)
	g   netlist.NodeID // branch gate, InvalidNode for stem targets
	pin int
	obs []uint64
	tfo []bool   // forbidden region for sources (cycles), indexed by NodeID
	av  []uint64 // substituted signal's value words
	// ones and zeros pack the observable samples where the target is 1
	// and where it is 0. Each source test reads only the half it can
	// fail on.
	ones, zeros []obsWord
}

// obsWord is one word of a packed half of a target's observable samples:
// the word's index and the mask of the half's samples in it (never 0).
type obsWord struct {
	w int
	m uint64
}

func (t *targetCtx) isBranch() bool { return t.g != netlist.InvalidNode }

// root is the node whose transitive fanout (itself included) no source
// may come from: the stem for stem targets, the gate for branch targets.
func (t *targetCtx) root() netlist.NodeID {
	if t.isBranch() {
		return t.g
	}
	return t.a
}

type generator struct {
	nl      *netlist.Netlist
	pm      *power.Model
	cfg     Config
	pool    []netlist.NodeID
	tfoMask []bool
	// cones holds the dead cone of the current target: the gates that
	// would die, which a reused inverter must not be among.
	cones *netlist.DeadCones
	out   []*Substitution
	// cells are the library's 2-input cells, in TwoInputCells order, that
	// have a shape the pair search handles.
	cells []shapedCell
	// class[i] holds pool[i]'s class bits against the current target.
	class []uint8
	// pairs[sh] holds the current target's passing source pairs of shape
	// sh; done[sh] marks them computed.
	pairs [numShapes][][2]netlist.NodeID
	done  [numShapes]bool
	// xorBase[root] memoizes the XOR-shape base set of a TFO root: it
	// depends only on which sources the root forbids, so one stem
	// target and every branch target into the same gate share it.
	xorBase [][]netlist.NodeID
	// base, keys, ones and zeros are scratch buffers of the current
	// target.
	base        []netlist.NodeID
	keys        []baseKey
	ones, zeros []obsWord
}

// shape is the function class of a 2-input cell that the pair search
// handles; cells with the same truth table share a shape.
type shape int

const (
	shapeAnd shape = iota
	shapeOr
	shapeNand
	shapeNor
	shapeXor
	shapeXnor
	numShapes
	shapeNone = numShapes
)

// shapeOf returns the shape of a 2-input truth table; shapeNone for
// shapes that are neither monotone nor XOR, such as a custom library's
// ANDN, which the pair search skips.
func shapeOf(tt logic.TT) shape {
	for sh, want := range [numShapes]logic.TT{andTT, orTT, nandTT, norTT, xorTT, xnorTT} {
		if tt.Equal(want) {
			return shape(sh)
		}
	}
	return shapeNone
}

type shapedCell struct {
	cell  *cellib.Cell
	shape shape
}

// The class bits record which base tests a source passes against a
// target on the observable samples: bit sh is set when the source may be
// one operand of a new gate of monotone shape sh.
const (
	// classAnd: val(b) covers the target, so b AND c can equal it.
	classAnd uint8 = 1 << shapeAnd
	// classOr: the target covers val(b).
	classOr uint8 = 1 << shapeOr
	// classNand: val(b) covers the target's complement.
	classNand uint8 = 1 << shapeNand
	// classNor: val(b) and the target are disjoint.
	classNor uint8 = 1 << shapeNor
	// classSource marks a source that may drive the target at all.
	classSource uint8 = 1 << 7
)

// sourceOK reports whether node b may drive the target without a cycle.
func (g *generator) sourceOK(t *targetCtx, b netlist.NodeID) bool {
	if b == t.a && !t.isBranch() {
		return false
	}
	return !t.tfo[b]
}

// classify fills g.class for the current target. A source's AND and NOR
// bits depend only on the target's observable ones (the source must
// cover them, or miss them), its OR and NAND bits only on the observable
// zeros (it must miss them, or cover them). So each half is one scan of
// its packed list. A source equals the target on the observable samples
// iff it passes classAnd and classOr, and equals its complement iff it
// passes classNand and classNor.
func (g *generator) classify(t *targetCtx) {
	sm := g.pm.Sim()
	for i, b := range g.pool {
		if !g.sourceOK(t, b) {
			g.class[i] = 0
			continue
		}
		bv := sm.Value(b)
		c := classSource
		miss, hit := scan(t.ones, bv)
		if miss == 0 {
			c |= classAnd
		}
		if hit == 0 {
			c |= classNor
		}
		miss, hit = scan(t.zeros, bv)
		if hit == 0 {
			c |= classOr
		}
		if miss == 0 {
			c |= classNand
		}
		g.class[i] = c
	}
}

// scan returns the samples of list on which x is 0 (miss) and those on
// which it is 1 (hit). Its loop has no branch but the exit, which it
// checks every 8 words: once both are nonzero, neither test of the half
// can pass, and it returns what it has seen.
func scan(list []obsWord, x []uint64) (miss, hit uint64) {
	for len(list) > 0 {
		n := min(len(list), 8)
		for _, p := range list[:n] {
			v := x[p.w]
			miss |= p.m &^ v
			hit |= p.m & v
		}
		if miss != 0 && hit != 0 {
			break
		}
		list = list[n:]
	}
	return miss, hit
}

// target harvests all candidates for one substituted signal.
func (g *generator) target(t *targetCtx) {
	count := 0
	add := func(s *Substitution) bool {
		if count >= maxPerTarget {
			return false
		}
		g.out = append(g.out, s)
		count++
		return true
	}
	g.ones, g.zeros = g.ones[:0], g.zeros[:0]
	for w, o := range t.obs {
		if m := t.av[w] & o; m != 0 {
			g.ones = append(g.ones, obsWord{w, m})
		}
		if m := ^t.av[w] & o; m != 0 {
			g.zeros = append(g.zeros, obsWord{w, m})
		}
	}
	t.ones, t.zeros = g.ones, g.zeros
	g.classify(t)
	g.done = [numShapes]bool{}

	// 2-signal candidates.
	eq, inv := classAnd|classOr, classNand|classNor
	for i, b := range g.pool {
		c := g.class[i]
		if c == 0 {
			continue
		}
		if t.isBranch() && b == t.a {
			continue // no-op: same driver, same polarity
		}
		if c&eq == eq {
			if !add(g.makeTwo(t, b, false)) {
				return
			}
		}
		if g.cfg.AllowInverted && c&inv == inv {
			if !add(g.makeTwo(t, b, true)) {
				return
			}
		}
	}

	// 3-signal candidates: cells of one shape share its passing pairs.
	for _, sc := range g.cells {
		for _, p := range g.pairsOf(t, sc.shape) {
			if !add(g.makeThree(t, p[0], p[1], sc.cell)) {
				return
			}
		}
	}
}

// pairsOf returns the passing source pairs of shape sh for the current
// target, computing them on first use. The pair search is quadratic in
// a small base set instead of the whole pool: a monotone shape
// constrains each operand by its class bit; an XOR shape determines the
// partner on the observable samples, so its base is simply the quietest
// sources.
func (g *generator) pairsOf(t *targetCtx, sh shape) [][2]netlist.NodeID {
	if g.done[sh] {
		return g.pairs[sh]
	}
	sm := g.pm.Sim()
	var base []netlist.NodeID
	if sh == shapeXor || sh == shapeXnor {
		base = g.xorBaseOf(t)
	} else {
		g.keys = g.keys[:0]
		for i, b := range g.pool {
			if g.class[i]&(1<<sh) != 0 {
				g.addKey(b)
			}
		}
		base = g.sortBase(g.base[:0])
		g.base = base
	}
	pairs := g.pairs[sh][:0]
	for i := 0; i < len(base); i++ {
		bv := sm.Value(base[i])
		for j := i + 1; j < len(base); j++ {
			if pairOK(t, sh, bv, sm.Value(base[j])) {
				pairs = append(pairs, [2]netlist.NodeID{base[i], base[j]})
			}
		}
	}
	g.pairs[sh], g.done[sh] = pairs, true
	return pairs
}

// baseKey is a base set member with its sort key, its transition
// probability.
type baseKey struct {
	e  float64
	id netlist.NodeID
}

// addKey appends b to the base set g.keys is building.
func (g *generator) addKey(b netlist.NodeID) {
	g.keys = append(g.keys, baseKey{g.pm.TransitionProb(b), b})
}

// sortBase orders the base set in g.keys, built in pool order, by
// transition probability, quiet signals first (the PG_B penalty grows
// with E), and appends its first maxThreeBase members to dst. The order
// among equal E is part of the output, and the test reference sorts the
// pool-ordered base with sort.Slice: slices.SortFunc runs the same
// pdqsort, comparison for comparison and swap for swap, and the
// comparison below is negative exactly where that less function holds,
// so the two orders agree.
func (g *generator) sortBase(dst []netlist.NodeID) []netlist.NodeID {
	slices.SortFunc(g.keys, func(x, y baseKey) int {
		switch {
		case x.e < y.e:
			return -1
		case x.e > y.e:
			return 1
		}
		return 0
	})
	for _, k := range g.keys[:min(len(g.keys), maxThreeBase)] {
		dst = append(dst, k.id)
	}
	return dst
}

// xorBaseOf returns the XOR-shape base set of the target: the quietest
// sources outside its root's transitive fanout.
func (g *generator) xorBaseOf(t *targetCtx) []netlist.NodeID {
	root := t.root()
	if b := g.xorBase[root]; b != nil {
		return b
	}
	g.keys = g.keys[:0]
	for _, b := range g.pool {
		if g.sourceOK(t, b) {
			g.addKey(b)
		}
	}
	base := g.sortBase(make([]netlist.NodeID, 0, min(len(g.keys), maxThreeBase)))
	g.xorBase[root] = base
	return base
}

// pairOK reports whether the new gate of shape sh on (b, c) equals the
// target on every observable sample. Both operands of a monotone shape
// passed its class test, which settles one half of the samples: an AND
// of two sources that cover the target's observable ones covers them
// too, so only the observable zeros are left to test, and so on. An XOR
// shape's base has no class filter, so it tests both halves.
func pairOK(t *targetCtx, sh shape, bv, cv []uint64) bool {
	switch sh {
	case shapeAnd: // b&c must miss every observable zero
		return andMisses(t.zeros, bv, cv)
	case shapeNand: // b&c must miss every observable one
		return andMisses(t.ones, bv, cv)
	case shapeOr: // b|c must cover every observable one
		return orCovers(t.ones, bv, cv)
	case shapeNor: // b|c must cover every observable zero
		return orCovers(t.zeros, bv, cv)
	case shapeXor: // b^c must equal the target
		return xorMatches(t, 0, bv, cv)
	default: // XNOR: b^c must equal the target's complement
		return xorMatches(t, ^uint64(0), bv, cv)
	}
}

// andMisses reports whether b&c is 0 on every sample of list.
func andMisses(list []obsWord, bv, cv []uint64) bool {
	for _, p := range list {
		if bv[p.w]&cv[p.w]&p.m != 0 {
			return false
		}
	}
	return true
}

// orCovers reports whether b|c is 1 on every sample of list.
func orCovers(list []obsWord, bv, cv []uint64) bool {
	for _, p := range list {
		if p.m&^(bv[p.w]|cv[p.w]) != 0 {
			return false
		}
	}
	return true
}

// xorMatches reports whether b^c^inv equals the target on every
// observable sample. It tests both halves of each word at once, so a
// nearly constant b^c fails at the first word that holds a sample of the
// half it disagrees with.
func xorMatches(t *targetCtx, inv uint64, bv, cv []uint64) bool {
	for w, o := range t.obs {
		if (bv[w]^cv[w]^t.av[w]^inv)&o != 0 {
			return false
		}
	}
	return true
}

func (g *generator) makeTwo(t *targetCtx, b netlist.NodeID, inverted bool) *Substitution {
	s := &Substitution{
		A:   t.a,
		G:   t.g,
		Pin: t.pin,
		Src: atpg.Source{B: b, InvertB: inverted, C: netlist.InvalidNode},
	}
	if t.isBranch() {
		s.Kind = IS2
	} else {
		s.Kind = OS2
	}
	if inverted {
		s.Inv = InvAdd
		if inv := FindInverter(g.nl, b); inv != netlist.InvalidNode &&
			g.sourceOK(t, inv) && !g.cones.Contains(inv) {
			s.Inv = InvReuse
			s.InvNode = inv
		}
	}
	return s
}

func (g *generator) makeThree(t *targetCtx, b, c netlist.NodeID, cell *cellib.Cell) *Substitution {
	s := &Substitution{
		A:       t.a,
		G:       t.g,
		Pin:     t.pin,
		Src:     atpg.Source{B: b, C: c, Gate: cell.TT},
		NewCell: cell,
	}
	if t.isBranch() {
		s.Kind = IS3
	} else {
		s.Kind = OS3
	}
	return s
}

var (
	andTT  = logic.TTFromExpr(logic.And(logic.Var(0), logic.Var(1)), 2)
	orTT   = logic.TTFromExpr(logic.Or(logic.Var(0), logic.Var(1)), 2)
	nandTT = logic.TTFromExpr(logic.Not(logic.And(logic.Var(0), logic.Var(1))), 2)
	norTT  = logic.TTFromExpr(logic.Not(logic.Or(logic.Var(0), logic.Var(1))), 2)
	xorTT  = logic.TTFromExpr(logic.Xor(logic.Var(0), logic.Var(1)), 2)
	xnorTT = logic.TTFromExpr(logic.Not(logic.Xor(logic.Var(0), logic.Var(1))), 2)
)
