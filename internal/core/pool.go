package core

import (
	"slices"

	"powder/internal/transform"
)

// pool is a region worker's candidate pool. It works in place in the
// harvest's slice and keeps, at every pick, exactly the order the
// per-pick preselection (k steps of selection sort by GainAB, then the
// pick's removal) would leave that slice in: later picks break gain ties
// by position, so the whole order is part of the output.
//
// The sequence is cands[head:]: the top, cands[head:rest], then the rest
// at fixed slots. GainAB is written only by AnalyzeAB, at a harvest and
// in a refresh, and each of those loads the pool. A load's pick makes the
// full selection. Between loads the first k-1 selection steps of a pick
// are no-ops, so a pick after a removal makes only the last one: the
// rest's first slot holding its largest gain swaps with the rest's head
// slot, which joins the top. A tournament tree over the rest's slots
// finds that slot; it is built at the first such pick after a load, since
// a pick that is applied loads the pool again. The tree's leaves read
// GainAB from the slice.
type pool struct {
	cands      []*transform.Substitution
	head, rest int
	k          int
	// loaded marks a sequence none of which is selected yet.
	loaded bool
	// tree is a tournament tree over the slots, leaves leaves wide (0
	// until it is built): leaf i is slot i while the slot is in the rest
	// and holds a gain that is not NaN (a NaN never wins), and -1
	// otherwise; an inner node holds the first slot of the largest gain
	// below it.
	tree   []int32
	leaves int
	// Scratch of partialSelectByGainAB, reused across loads.
	top       []float64
	seen, pos []int
}

// poolOp names a pool step for selectCheck.
type poolOp int

const (
	poolLoad   poolOp = iota // the sequence was replaced; nothing is selected
	poolPick                 // a pick's top is selected
	poolRemove               // top[i] was removed
)

// selectCheck, when set, is called after every load, pick and removal of
// every pool, with the index of a removed candidate in its top. The
// exactness test runs the per-pick selection beside it. It is called from
// every region worker, so it must be safe for concurrent use.
var selectCheck func(p *pool, op poolOp, i int)

// load replaces the sequence with cands, whose gains may all have moved.
func (p *pool) load(cands []*transform.Substitution) {
	p.cands, p.head, p.rest, p.loaded = cands, 0, 0, true
	if selectCheck != nil {
		selectCheck(p, poolLoad, -1)
	}
}

// seq returns the sequence: the top, then the rest.
func (p *pool) seq() []*transform.Substitution { return p.cands[p.head:] }

// pick selects and returns the top of the next pick: the k largest
// gains, or the whole sequence when it is shorter.
func (p *pool) pick() []*transform.Substitution {
	if p.loaded {
		k := min(p.k, len(p.cands))
		p.partialSelectByGainAB(p.cands, k)
		p.rest, p.leaves, p.loaded = k, 0, false
	} else if p.rest < len(p.cands) && p.rest-p.head < p.k {
		if p.leaves == 0 {
			p.build()
		}
		h, j := p.rest, p.rest
		if g := p.cands[h].GainAB; g == g {
			j = int(p.tree[1])
		}
		p.cands[h], p.cands[j] = p.cands[j], p.cands[h]
		p.rest++
		p.set(h)
		p.set(j)
	}
	if selectCheck != nil {
		selectCheck(p, poolPick, -1)
	}
	return p.cands[p.head:p.rest]
}

// remove drops top[i]. Only the top before it moves, one slot on.
func (p *pool) remove(i int) {
	copy(p.cands[p.head+1:p.head+i+1], p.cands[p.head:p.head+i])
	p.head++
	if selectCheck != nil {
		selectCheck(p, poolRemove, i)
	}
}

// build builds the tree over the rest, which no pick has entered yet.
func (p *pool) build() {
	p.leaves = 1
	for p.leaves < len(p.cands) {
		p.leaves *= 2
	}
	p.tree = slices.Grow(p.tree[:0], 2*p.leaves)[:2*p.leaves]
	for i := range p.leaves {
		p.tree[p.leaves+i] = p.leaf(i)
	}
	for n := p.leaves - 1; n > 0; n-- {
		p.tree[n] = p.winner(p.tree[2*n], p.tree[2*n+1])
	}
}

// leaf returns the tree leaf of slot.
func (p *pool) leaf(slot int) int32 {
	if slot < p.rest || slot >= len(p.cands) {
		return -1
	}
	if g := p.cands[slot].GainAB; g != g {
		return -1
	}
	return int32(slot)
}

// winner returns the leaf of the larger gain, a on a tie: a's slots
// precede b's.
func (p *pool) winner(a, b int32) int32 {
	if a < 0 || (b >= 0 && p.cands[b].GainAB > p.cands[a].GainAB) {
		return b
	}
	return a
}

// set recomputes slot's leaf and the path from it to the root.
func (p *pool) set(slot int) {
	n := p.leaves + slot
	p.tree[n] = p.leaf(slot)
	for n > 1 {
		n /= 2
		p.tree[n] = p.winner(p.tree[2*n], p.tree[2*n+1])
	}
}

// partialSelectByGainAB moves the k highest-GainAB candidates to the
// front, leaving the slice exactly as k steps of selection sort would:
// step i swaps position i with the first position j >= i holding the
// largest gain. Later picks break gain ties by position, so the whole
// permutation matters, not just the first k.
//
// Only positions below k and candidates whose gain is at least the k-th
// largest gain take part in those swaps: every pick has such a gain, and
// each swap moves a candidate between two such positions. So one pass
// finds that threshold, noting on the way every position whose gain
// reached the running k-th largest (a superset of those in play), and
// the swaps are replayed over the positions in play. A NaN gain is never
// picked (no comparison with it holds), so it stays out of the threshold
// too. The pool's scratch holds the threshold and the positions.
func (p *pool) partialSelectByGainAB(cands []*transform.Substitution, k int) {
	k = min(k, len(cands))
	if k <= 0 {
		return
	}
	top := slices.Grow(p.top[:0], k+1) // the k largest gains so far, ascending
	seen := p.seen[:0]
	for j, s := range cands {
		g := s.GainAB
		if g != g || (len(top) == k && g < top[0]) {
			continue
		}
		seen = append(seen, j)
		i, _ := slices.BinarySearch(top, g)
		top = slices.Insert(top, i, g)
		if len(top) > k {
			copy(top, top[1:])
			top = top[:k]
		}
	}
	p.top, p.seen = top, seen
	if len(top) == 0 {
		return
	}
	pos := slices.Grow(p.pos[:0], k+len(seen))[:k]
	for i := range pos {
		pos[i] = i
	}
	for _, j := range seen {
		if j >= k && cands[j].GainAB >= top[0] {
			pos = append(pos, j)
		}
	}
	p.pos = pos
	for i := 0; i < k; i++ {
		maxJ := i
		for _, j := range pos[i+1:] { // pos[i] == i
			if cands[j].GainAB > cands[maxJ].GainAB {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
}
