// Package sim provides 64-way bit-parallel simulation of mapped netlists.
// One Simulator holds a fixed set of sample input vectors (random with
// per-input bias, or exhaustive for small input counts) and the resulting
// value words for every signal. The same fixed vector set is used for the
// whole optimization run, which makes incremental probability re-estimation
// (paper Section 3.3, contribution PG_C) consistent with the global
// estimate.
package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"powder/internal/netlist"
)

// Simulator simulates one netlist on a fixed set of sample vectors.
type Simulator struct {
	nl    *netlist.Netlist
	words int
	// values[id] holds the simulated stem words of node id; nil for dead
	// or never-simulated nodes.
	values [][]uint64
	// order and topoPos are the netlist's Topo of structure version.
	order   []netlist.NodeID
	topoPos []int
	version int64
	// nvec is the number of valid sample vectors; trailing bits beyond it
	// are masked out of counts via ValidMask.
	nvec int

	// scratch state of Hypothetical and the observability queries: the
	// per-node overlay values, the latest propagation's affected nodes
	// and PO difference mask, and the flipped-value inputs
	scratch   [][]uint64
	scratchID []int64
	epoch     int64
	affected  []netlist.NodeID
	poDiff    []uint64
	altBuf    []uint64
	pinBuf    []uint64
	// regs are the scratch registers of the compiled cell programs.
	regs [][]uint64

	// The observability table of StemObs: obsSlab holds Words mask words
	// per node, valid where obsStamp[id] == obsEpoch. The epoch advances
	// when the values (obsGen) or the structure (obsVersion) change.
	obsSlab    []uint64
	obsStamp   []uint64
	obsEpoch   uint64
	obsGen     uint64
	obsVersion int64

	// ones caches Ones per node: ones[id] is valid while onesGen[id] ==
	// gen, and gen advances whenever any value word may have changed.
	ones    []int
	onesGen []uint64
	gen     uint64

	// tfoSeen[id] == tfoMark marks the nodes collectTFO has reached;
	// tfoStack is its reused work list.
	tfoSeen  []uint64
	tfoMark  uint64
	tfoStack []netlist.NodeID
}

// New creates a simulator with the given number of 64-bit words per signal
// (words*64 sample vectors). Input values are all-zero until one of the
// SetInputs methods is called; Run must be called before reading values.
func New(nl *netlist.Netlist, words int) *Simulator {
	if words <= 0 {
		panic("sim: words must be positive")
	}
	s := &Simulator{nl: nl, words: words, nvec: words * 64, gen: 1}
	s.refreshTopo()
	s.grow()
	for _, id := range s.order {
		s.values[id] = make([]uint64, words)
	}
	return s
}

// grow extends the per-node tables to the netlist's node count.
func (s *Simulator) grow() {
	n := s.nl.NumNodes()
	if n <= len(s.values) {
		return
	}
	add := n - len(s.values)
	s.values = append(s.values, make([][]uint64, add)...)
	s.scratch = append(s.scratch, make([][]uint64, add)...)
	s.scratchID = append(s.scratchID, make([]int64, add)...)
	s.ones = append(s.ones, make([]int, add)...)
	s.onesGen = append(s.onesGen, make([]uint64, add)...)
	s.tfoSeen = append(s.tfoSeen, make([]uint64, add)...)
	s.obsStamp = append(s.obsStamp, make([]uint64, add)...)
}

// Words returns the number of 64-bit words per signal.
func (s *Simulator) Words() int { return s.words }

// NumVectors returns the number of valid sample vectors.
func (s *Simulator) NumVectors() int { return s.nvec }

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *netlist.Netlist { return s.nl }

// refreshTopo takes the netlist's cached topological order of its
// current structure.
func (s *Simulator) refreshTopo() {
	s.order, s.topoPos = s.nl.Topo()
	s.version = s.nl.Version()
}

// Resync must be called after the netlist was structurally modified; it
// refreshes the topological order and fully resimulates. New nodes get
// value storage; input words of existing inputs are preserved.
func (s *Simulator) Resync() {
	s.grow()
	s.refreshTopo()
	for _, id := range s.order {
		if s.values[id] == nil {
			s.values[id] = make([]uint64, s.words)
		}
	}
	s.Run()
}

// SetInputsRandom fills the input words with independent random bits.
// probs gives the signal probability per primary input (in input order);
// nil means 0.5 everywhere. The generator is deterministic in seed.
func (s *Simulator) SetInputsRandom(seed int64, probs []float64) {
	rng := rand.New(rand.NewSource(seed))
	ins := s.nl.Inputs()
	if probs != nil && len(probs) != len(ins) {
		panic(fmt.Sprintf("sim: %d probabilities for %d inputs", len(probs), len(ins)))
	}
	s.nvec = s.words * 64
	s.gen++
	for i, id := range ins {
		p := 0.5
		if probs != nil {
			p = probs[i]
		}
		v := s.values[id]
		for w := range v {
			if p == 0.5 {
				v[w] = rng.Uint64()
				continue
			}
			var word uint64
			for b := 0; b < 64; b++ {
				if rng.Float64() < p {
					word |= 1 << uint(b)
				}
			}
			v[w] = word
		}
	}
}

// SetInputWord sets one 64-vector word of a primary input directly;
// useful for driving specific test vectors.
func (s *Simulator) SetInputWord(id netlist.NodeID, w int, bits uint64) {
	n := s.nl.Node(id)
	if n.Kind() != netlist.KindInput {
		panic(fmt.Sprintf("sim: SetInputWord on non-input %s", n.Name()))
	}
	s.gen++
	s.values[id][w] = bits
}

// SetInputsExhaustive enumerates all 2^n input minterms (n = number of
// inputs); it requires n small enough that 2^n fits the simulator's words
// and at least 1 word. With exhaustive inputs and uniform input
// probabilities, downstream probability estimates are exact.
func (s *Simulator) SetInputsExhaustive() error {
	ins := s.nl.Inputs()
	n := len(ins)
	if n > 30 {
		return fmt.Errorf("sim: %d inputs is too many for exhaustive simulation", n)
	}
	need := 1 << uint(n)
	if need > s.words*64 {
		return fmt.Errorf("sim: exhaustive simulation of %d inputs needs %d vectors, have %d",
			n, need, s.words*64)
	}
	s.nvec = need
	s.gen++
	for i, id := range ins {
		v := s.values[id]
		for w := range v {
			var word uint64
			for b := 0; b < 64; b++ {
				vec := w*64 + b
				if vec < need && vec>>uint(i)&1 == 1 {
					word |= 1 << uint(b)
				}
			}
			v[w] = word
		}
	}
	// Vectors beyond 'need' replicate vector 0 (all-zero inputs); ValidMask
	// excludes them from all counts.
	return nil
}

// ValidMask returns the mask of valid bits for word w (all bits except
// possibly in the word holding the last exhaustive vector).
func (s *Simulator) ValidMask(w int) uint64 {
	lastWord := (s.nvec - 1) / 64
	switch {
	case w < lastWord:
		return ^uint64(0)
	case w == lastWord:
		if s.nvec%64 == 0 {
			return ^uint64(0)
		}
		return (uint64(1) << uint(s.nvec%64)) - 1
	default:
		return 0
	}
}

// Run simulates the whole netlist in topological order.
func (s *Simulator) Run() {
	if s.version != s.nl.Version() {
		s.refreshTopo()
	}
	s.gen++
	var in [6][]uint64
	for _, id := range s.order {
		n := s.nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		fanins := n.Fanins()
		for pin, f := range fanins {
			in[pin] = s.values[f]
		}
		s.evalGate(n, in[:len(fanins)], s.values[id])
	}
}

// evalGate evaluates the gate's compiled cell function from the given
// fanin word slices into out.
func (s *Simulator) evalGate(n *netlist.Node, in [][]uint64, out []uint64) {
	p := n.Cell().Program
	for len(s.regs) < p.Regs() {
		s.regs = append(s.regs, make([]uint64, s.words))
	}
	p.Run(in, out, s.regs)
}

// Value returns the simulated stem words of node id. The slice is owned by
// the simulator; callers must not mutate it.
func (s *Simulator) Value(id netlist.NodeID) []uint64 {
	v := s.values[id]
	if v == nil {
		panic(fmt.Sprintf("sim: node %d has no value (dead or stale simulator)", id))
	}
	return v
}

// Ones returns the number of valid sample vectors on which the signal is
// 1. Counts are cached until the next change to the simulated values, so
// repeated queries cost no popcount.
func (s *Simulator) Ones(id netlist.NodeID) int {
	if s.onesGen[id] == s.gen {
		return s.ones[id]
	}
	n := s.CountOnes(s.Value(id))
	s.ones[id], s.onesGen[id] = n, s.gen
	return n
}

// Probability returns the estimated signal probability of the node.
func (s *Simulator) Probability(id netlist.NodeID) float64 {
	return float64(s.Ones(id)) / float64(s.nvec)
}

// CountOnes returns the number of valid sample vectors on which the given
// value words (one signal, Words long) are 1.
func (s *Simulator) CountOnes(words []uint64) int {
	last := (s.nvec - 1) / 64
	n := bits.OnesCount64(words[last] & s.ValidMask(last))
	for _, w := range words[:last] {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountOnesAnd returns the number of valid sample vectors on which both
// value words x and y are 1.
func (s *Simulator) CountOnesAnd(x, y []uint64) int {
	last := (s.nvec - 1) / 64
	n := bits.OnesCount64(x[last] & y[last] & s.ValidMask(last))
	for w := range x[:last] {
		n += bits.OnesCount64(x[w] & y[w])
	}
	return n
}

// ResimFrom recomputes the values of the given gates and everything in
// their transitive fanout, in topological order. Call it after local
// netlist edits when the rest of the circuit is unchanged and the netlist
// version was not structurally invalidated (otherwise use Resync).
func (s *Simulator) ResimFrom(roots ...netlist.NodeID) {
	if s.version != s.nl.Version() {
		s.refreshTopo()
		s.version = s.nl.Version()
	}
	s.gen++
	affected := s.collectTFO(nil, roots...)
	var in [6][]uint64
	for _, id := range affected {
		n := s.nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		if s.values[id] == nil {
			s.values[id] = make([]uint64, s.words)
		}
		fanins := n.Fanins()
		for pin, f := range fanins {
			in[pin] = s.values[f]
		}
		s.evalGate(n, in[:len(fanins)], s.values[id])
	}
}

// collectTFO returns roots plus their transitive fanout, sorted by
// topological position, in buf's storage when it is large enough.
func (s *Simulator) collectTFO(buf []netlist.NodeID, roots ...netlist.NodeID) []netlist.NodeID {
	s.grow()
	s.tfoMark++
	out := buf[:0]
	stack := s.tfoStack[:0]
	for _, r := range roots {
		if s.tfoSeen[r] != s.tfoMark {
			s.tfoSeen[r] = s.tfoMark
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, id)
		for _, b := range s.nl.Node(id).Fanouts() {
			if !b.IsPO() && s.tfoSeen[b.Gate] != s.tfoMark {
				s.tfoSeen[b.Gate] = s.tfoMark
				stack = append(stack, b.Gate)
			}
		}
	}
	s.tfoStack = stack
	slices.SortFunc(out, func(a, b netlist.NodeID) int { return cmp.Compare(s.topoPos[a], s.topoPos[b]) })
	return out
}
