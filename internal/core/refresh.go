package core

import (
	"powder/internal/netlist"
	"powder/internal/transform"
)

// refresher re-validates and re-analyzes, after each replica apply, only
// the candidates the apply can have changed (DESIGN.md §5, "Refresh at the
// cost of what changed"). Every candidate it is given was valid, with
// current GainAB and AreaDelta, before the apply. It keeps node-indexed
// stamps only, nothing per candidate, and is not safe for concurrent use.
type refresher struct {
	nl *netlist.Netlist
	// cones answers the keep-free dead-cone walks of the targets.
	cones *netlist.DeadCones
	// Stamps of the current refresh: changed[id] == epoch marks the
	// apply's changed set, tfo[id] == epoch the transitive fanout of its
	// rewired gates, and coneAt[id] == epoch that dirty[id] says whether
	// the keep-free dead cone of target id meets the changed set.
	epoch   uint32
	changed []uint32
	tfo     []uint32
	coneAt  []uint32
	dirty   []bool
	stack   []netlist.NodeID
	// full makes the next refresh treat every candidate as touched: a
	// rolled-back apply restores the structure but not the order of its
	// fanout lists, so sums over them may round differently.
	full bool
}

func newRefresher(nl *netlist.Netlist) *refresher {
	return &refresher{nl: nl, cones: netlist.NewDeadCones(nl)}
}

// refreshCheck, when set, is called after every refresh with the
// candidates before it and the ones it kept; the exactness test sets it
// to run the full refresh beside the incremental one. It is called from
// every region worker, so it must be safe for concurrent use.
var refreshCheck func(nl *netlist.Netlist, an *transform.Analyzer, before, kept []*transform.Substitution)

// refresh drops the candidates the apply of a substitution invalidated
// and re-analyzes PG_A+PG_B where the apply may have moved it, counting
// each drop with stale. pre and rewired are preApplyTouched of the
// substitution, res its apply result and changed the nodes the resync
// after it reported; cands is filtered in place.
//
// The changed set is pre, postApplyTouched(res) and changed: every node
// whose fanins, fanouts, liveness or words the apply changed. A
// candidate is re-validated when one of its endpoints is changed or one
// of its sources lies in the transitive fanout of a rewired gate, the only
// place a new path can end. It is re-analyzed when an endpoint is changed
// or its target's keep-free dead cone or that cone's fanin pins meet the
// changed set; otherwise AnalyzeAB would read exactly the data it read
// before.
func (rf *refresher) refresh(an *transform.Analyzer, cands []*transform.Substitution, pre []netlist.NodeID, rewired int,
	res *transform.ApplyResult, changed []netlist.NodeID, stale func()) []*transform.Substitution {
	var before []*transform.Substitution
	if refreshCheck != nil {
		before = append(before, cands...)
	}
	rf.begin()
	rf.mark(pre)
	rf.mark(postApplyTouched(rf.nl, res))
	rf.mark(changed)
	rf.markTFO(pre[rewired:])
	full := rf.full
	rf.full = false
	kept := cands[:0]
	for _, s := range cands {
		touched := full || rf.endpointChanged(s)
		if (touched || rf.sourceInTFO(s)) && !candidateValid(rf.nl, s) {
			stale()
			continue
		}
		if touched || rf.coneDirty(s) {
			an.AnalyzeAB(s)
		}
		kept = append(kept, s)
	}
	if refreshCheck != nil {
		refreshCheck(rf.nl, an, before, kept)
	}
	return kept
}

// begin opens a new refresh epoch, growing the stamps to the netlist.
func (rf *refresher) begin() {
	if n := rf.nl.NumNodes(); len(rf.changed) < n {
		add := n - len(rf.changed)
		rf.changed = append(rf.changed, make([]uint32, add)...)
		rf.tfo = append(rf.tfo, make([]uint32, add)...)
		rf.coneAt = append(rf.coneAt, make([]uint32, add)...)
		rf.dirty = append(rf.dirty, make([]bool, add)...)
	}
	rf.epoch++
	if rf.epoch == 0 {
		// The stamps wrapped: clear them so no stale one matches.
		clear(rf.changed)
		clear(rf.tfo)
		clear(rf.coneAt)
		rf.epoch = 1
	}
}

// mark adds ids to the changed set.
func (rf *refresher) mark(ids []netlist.NodeID) {
	for _, id := range ids {
		rf.changed[id] = rf.epoch
	}
}

// markTFO stamps the given gates and their transitive fanout.
func (rf *refresher) markTFO(roots []netlist.NodeID) {
	stack := rf.stack[:0]
	for _, r := range roots {
		if rf.tfo[r] != rf.epoch {
			rf.tfo[r] = rf.epoch
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, b := range rf.nl.Node(id).Fanouts() {
			if !b.IsPO() && rf.tfo[b.Gate] != rf.epoch {
				rf.tfo[b.Gate] = rf.epoch
				stack = append(stack, b.Gate)
			}
		}
	}
	rf.stack = stack
}

// reusesInverter reports whether s reads an existing inverter's output.
func reusesInverter(s *transform.Substitution) bool {
	return s.Src.InvertB && s.Inv == transform.InvReuse
}

// endpointChanged reports whether a node the candidate names (A, G, B, C
// or the reused inverter) is in the changed set.
func (rf *refresher) endpointChanged(s *transform.Substitution) bool {
	ch := func(id netlist.NodeID) bool { return rf.changed[id] == rf.epoch }
	return ch(s.A) || ch(s.Src.B) ||
		(s.IsBranchSub() && ch(s.G)) ||
		(s.Src.IsThree() && ch(s.Src.C)) ||
		(reusesInverter(s) && ch(s.InvNode))
}

// sourceInTFO reports whether a source of the candidate lies in the
// transitive fanout of a rewired gate: only there can a path from the
// candidate's root have appeared.
func (rf *refresher) sourceInTFO(s *transform.Substitution) bool {
	in := func(id netlist.NodeID) bool { return rf.tfo[id] == rf.epoch }
	return in(s.Src.B) ||
		(s.Src.IsThree() && in(s.Src.C)) ||
		(reusesInverter(s) && in(s.InvNode))
}

// coneDirty reports whether the dead cone AnalyzeAB walks for the
// candidate, or the fanin pins of that cone, may meet the changed set.
// Call it only when no endpoint changed, so that A's fanouts are as they
// were. A branch whose driver keeps another fanout kills nothing; any
// other target's cone, whatever it keeps, lies within the keep-free cone
// of A, which is walked once per refresh.
func (rf *refresher) coneDirty(s *transform.Substitution) bool {
	a := s.A
	if s.IsBranchSub() && rf.nl.Node(a).NumFanouts() > 1 {
		return false
	}
	if rf.coneAt[a] != rf.epoch {
		rf.coneAt[a] = rf.epoch
		rf.dirty[a] = rf.meets(rf.cones.Stem(a))
	}
	return rf.dirty[a]
}

// meets reports whether a cone or one of its fanin pins is changed.
func (rf *refresher) meets(cone []netlist.NodeID) bool {
	for _, id := range cone {
		if rf.changed[id] == rf.epoch {
			return true
		}
		for _, f := range rf.nl.Node(id).Fanins() {
			if rf.changed[f] == rf.epoch {
				return true
			}
		}
	}
	return false
}
