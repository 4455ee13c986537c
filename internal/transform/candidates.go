package transform

import (
	"context"
	"sort"
	"time"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/power"
)

// Config controls candidate generation.
type Config struct {
	// Class enables; the zero Config enables everything (see Normalize).
	DisableOS2, DisableIS2, DisableOS3, DisableIS3 bool
	// AllowInverted additionally proposes substitutions by inverted
	// signals (realized by inverter reuse or insertion).
	AllowInverted bool
	// MaxThreeBase caps the per-class base-signal set of the 3-signal pair
	// search (default 16).
	MaxThreeBase int
	// MaxPerTarget caps how many candidates one substituted signal may
	// contribute (default 48).
	MaxPerTarget int
	// TargetFilter, when non-nil, restricts harvesting to targets it
	// accepts: stem substitutions of node A require TargetFilter(A), and
	// branch substitutions into gate G require TargetFilter(G). The
	// candidate *source* pool stays global. The region engine hands
	// each region worker the filter of its region; disjoint filters
	// partition the full candidate set.
	TargetFilter func(netlist.NodeID) bool
	// Metrics, when non-nil, receives the harvest metrics: harvests,
	// candidates by class, harvest seconds.
	Metrics *obs.Registry
}

// Normalize fills defaults.
func (c *Config) Normalize() {
	if c.MaxThreeBase <= 0 {
		c.MaxThreeBase = 16
	}
	if c.MaxPerTarget <= 0 {
		c.MaxPerTarget = 48
	}
}

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
	cfg.Normalize()
	start := time.Now()
	sm := pm.Sim()
	g := &generator{nl: nl, pm: pm, cfg: cfg, words: sm.Words(), tfoMask: make([]bool, nl.NumNodes()),
		cones: netlist.NewDeadCones(nl)}

	// Candidate source pool: all live stems, in topological order for
	// determinism.
	for _, id := range nl.TopoOrder() {
		g.pool = append(g.pool, id)
	}

	// Stem targets (OS2/OS3).
	if !cfg.DisableOS2 || !cfg.DisableOS3 {
		for _, a := range g.pool {
			n := nl.Node(a)
			if n.Kind() != netlist.KindGate || n.NumFanouts() == 0 {
				continue
			}
			if cfg.TargetFilter != nil && !cfg.TargetFilter(a) {
				continue
			}
			obs := sm.StemObservability(a)
			touched := nl.MarkTFO(a, g.tfoMask)
			g.tfoMask[a] = true
			g.cones.Stem(a)
			g.target(&targetCtx{
				a: a, g: netlist.InvalidNode, pin: -1,
				obs: obs, tfo: g.tfoMask,
				av: sm.Value(a),
			})
			g.tfoMask[a] = false
			for _, id := range touched {
				g.tfoMask[id] = false
			}
		}
	}

	// Branch targets (IS2/IS3): every gate input pin of a multi-fanout
	// stem (single-fanout branches coincide with the stem substitution).
	if !cfg.DisableIS2 || !cfg.DisableIS3 {
		for _, gid := range g.pool {
			n := nl.Node(gid)
			if n.Kind() != netlist.KindGate {
				continue
			}
			if cfg.TargetFilter != nil && !cfg.TargetFilter(gid) {
				continue
			}
			for pin, drv := range n.Fanins() {
				if nl.Node(drv).NumFanouts() < 2 {
					continue
				}
				obs := sm.BranchObservability(gid, pin)
				touched := nl.MarkTFO(gid, g.tfoMask)
				g.tfoMask[gid] = true
				g.cones.Branch(drv, netlist.Branch{Gate: gid, Pin: pin})
				g.target(&targetCtx{
					a: drv, g: gid, pin: pin,
					obs: obs, tfo: g.tfoMask,
					av: sm.Value(drv),
				})
				g.tfoMask[gid] = false
				for _, id := range touched {
					g.tfoMask[id] = false
				}
			}
		}
	}
	harvested(sp, cfg.Metrics, g.out, len(g.pool), start)
	return g.out
}

// harvested records one Generate call: the candidate counts on the
// harvest span and in the metrics registry.
func harvested(sp *trace.Span, m *obs.Registry, cands []*Substitution, pool int, start time.Time) {
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
	if m == nil {
		return
	}
	m.Counter("transform.harvests").Inc()
	m.Counter("transform.candidates").Add(int64(len(cands)))
	for k, n := range byKind {
		if n > 0 {
			m.Counter("transform.candidates." + Kind(k).String()).Add(int64(n))
		}
	}
	m.Histogram("transform.harvest.seconds").ObserveSince(start)
}

type targetCtx struct {
	a   netlist.NodeID // substituted stem (or branch driver)
	g   netlist.NodeID // branch gate, InvalidNode for stem targets
	pin int
	obs []uint64
	tfo []bool   // forbidden region for sources (cycles), indexed by NodeID
	av  []uint64 // substituted signal's value words
}

func (t *targetCtx) isBranch() bool { return t.g != netlist.InvalidNode }

type generator struct {
	nl      *netlist.Netlist
	pm      *power.Model
	cfg     Config
	pool    []netlist.NodeID
	words   int
	tfoMask []bool
	// cones holds the dead cone of the current target: the gates that
	// would die, which a reused inverter must not be among.
	cones *netlist.DeadCones
	out   []*Substitution
}

// sourceOK reports whether node b may drive the target without a cycle.
func (g *generator) sourceOK(t *targetCtx, b netlist.NodeID) bool {
	if b == t.a && !t.isBranch() {
		return false
	}
	return !t.tfo[b]
}

// matchesPlain reports whether val(b) equals the target value on every
// observable sample.
func (g *generator) matches(t *targetCtx, bv []uint64, inverted bool) bool {
	for w := 0; w < g.words; w++ {
		x := bv[w]
		if inverted {
			x = ^x
		}
		if (x^t.av[w])&t.obs[w] != 0 {
			return false
		}
	}
	return true
}

// target harvests all candidates for one substituted signal.
func (g *generator) target(t *targetCtx) {
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

	// 2-signal candidates.
	two := (t.isBranch() && !g.cfg.DisableIS2) || (!t.isBranch() && !g.cfg.DisableOS2)
	if two {
		for _, b := range g.pool {
			if !g.sourceOK(t, b) {
				continue
			}
			if t.isBranch() && b == t.a {
				continue // no-op: same driver, same polarity
			}
			bv := sm.Value(b)
			if g.matches(t, bv, false) {
				if !add(g.makeTwo(t, b, false)) {
					return
				}
			}
			if g.cfg.AllowInverted && g.matches(t, bv, true) {
				if !add(g.makeTwo(t, b, true)) {
					return
				}
			}
		}
	}

	// 3-signal candidates.
	three := (t.isBranch() && !g.cfg.DisableIS3) || (!t.isBranch() && !g.cfg.DisableOS3)
	if !three {
		return
	}
	for _, cell := range g.nl.Lib.TwoInputCells() {
		if !g.threeForCell(t, cell, add) {
			return
		}
	}
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

// threeForCell harvests 3-signal candidates whose new gate is the given
// 2-input cell. It returns false when the per-target cap was hit.
func (g *generator) threeForCell(t *targetCtx, cell *cellib.Cell, add func(*Substitution) bool) bool {
	sm := g.pm.Sim()
	tt := cell.TT

	// Classify the cell to derive the base-signal filter that makes the
	// pair search quadratic in a small set instead of the whole pool:
	// monotone-expressible cells (AND/OR/NAND/NOR shapes) constrain each
	// operand by a cover/anti-cover condition; XOR-shaped cells determine
	// the partner uniquely.
	isXorLike := tt.Equal(xorTT) || tt.Equal(xnorTT)
	if isXorLike {
		return g.threeXor(t, cell, add)
	}
	var baseOK func(bv []uint64) bool
	var pairOK func(bv, cv []uint64) bool
	switch {
	case tt.Equal(andTT):
		baseOK = func(bv []uint64) bool { return g.covers(bv, t.av, t.obs) }
		pairOK = func(bv, cv []uint64) bool { return g.combEq(t, bv, cv, opAnd, false) }
	case tt.Equal(orTT):
		baseOK = func(bv []uint64) bool { return g.covers(t.av, bv, t.obs) }
		pairOK = func(bv, cv []uint64) bool { return g.combEq(t, bv, cv, opOr, false) }
	case tt.Equal(nandTT):
		baseOK = func(bv []uint64) bool { return g.coversInv(bv, t.av, t.obs) }
		pairOK = func(bv, cv []uint64) bool { return g.combEq(t, bv, cv, opAnd, true) }
	case tt.Equal(norTT):
		baseOK = func(bv []uint64) bool { return g.disjoint(bv, t.av, t.obs) }
		pairOK = func(bv, cv []uint64) bool { return g.combEq(t, bv, cv, opOr, true) }
	default:
		// Other 2-input cells (none in Lib2) are skipped.
		return true
	}

	var base []netlist.NodeID
	for _, b := range g.pool {
		if !g.sourceOK(t, b) {
			continue
		}
		if baseOK(sm.Value(b)) {
			base = append(base, b)
		}
	}
	// Prefer quiet signals: the PG_B penalty grows with E.
	sort.Slice(base, func(i, j int) bool {
		return g.pm.TransitionProb(base[i]) < g.pm.TransitionProb(base[j])
	})
	if len(base) > g.cfg.MaxThreeBase {
		base = base[:g.cfg.MaxThreeBase]
	}
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			if pairOK(sm.Value(base[i]), sm.Value(base[j])) {
				if !add(g.makeThree(t, base[i], base[j], cell)) {
					return false
				}
			}
		}
	}
	return true
}

// threeXor handles XOR/XNOR-shaped new gates: the partner signal is fully
// determined on the observable samples, so scan the pool for it.
func (g *generator) threeXor(t *targetCtx, cell *cellib.Cell, add func(*Substitution) bool) bool {
	sm := g.pm.Sim()
	xnor := cell.TT.Equal(xnorTT)

	var base []netlist.NodeID
	for _, b := range g.pool {
		if g.sourceOK(t, b) {
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
		bv := sm.Value(base[i])
		for j := i + 1; j < len(base); j++ {
			cv := sm.Value(base[j])
			ok := true
			for w := 0; w < g.words && ok; w++ {
				x := bv[w] ^ cv[w]
				if xnor {
					x = ^x
				}
				ok = (x^t.av[w])&t.obs[w] == 0
			}
			if ok {
				if !add(g.makeThree(t, base[i], base[j], cell)) {
					return false
				}
			}
		}
	}
	return true
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

type binOp int

const (
	opAnd binOp = iota
	opOr
)

// covers reports whether x >= y (x covers y) on the observable samples.
func (g *generator) covers(x, y, obs []uint64) bool {
	for w := 0; w < g.words; w++ {
		if y[w]&^x[w]&obs[w] != 0 {
			return false
		}
	}
	return true
}

// coversInv reports whether x covers ~y on the observable samples.
func (g *generator) coversInv(x, y, obs []uint64) bool {
	for w := 0; w < g.words; w++ {
		if ^y[w]&^x[w]&obs[w] != 0 {
			return false
		}
	}
	return true
}

// disjoint reports whether x & y == 0 on the observable samples.
func (g *generator) disjoint(x, y, obs []uint64) bool {
	for w := 0; w < g.words; w++ {
		if x[w]&y[w]&obs[w] != 0 {
			return false
		}
	}
	return true
}

// combEq checks (b OP c) [inverted] == target on the observable samples.
func (g *generator) combEq(t *targetCtx, bv, cv []uint64, op binOp, invert bool) bool {
	for w := 0; w < g.words; w++ {
		var x uint64
		if op == opAnd {
			x = bv[w] & cv[w]
		} else {
			x = bv[w] | cv[w]
		}
		if invert {
			x = ^x
		}
		if (x^t.av[w])&t.obs[w] != 0 {
			return false
		}
	}
	return true
}

var (
	andTT  = logic.TTFromExpr(logic.And(logic.Var(0), logic.Var(1)), 2)
	orTT   = logic.TTFromExpr(logic.Or(logic.Var(0), logic.Var(1)), 2)
	nandTT = logic.TTFromExpr(logic.Not(logic.And(logic.Var(0), logic.Var(1))), 2)
	norTT  = logic.TTFromExpr(logic.Not(logic.Or(logic.Var(0), logic.Var(1))), 2)
	xorTT  = logic.TTFromExpr(logic.Xor(logic.Var(0), logic.Var(1)), 2)
	xnorTT = logic.TTFromExpr(logic.Not(logic.Xor(logic.Var(0), logic.Var(1))), 2)
)
