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

	// ones caches Ones per node: ones[id] counts the stored words of id
	// while onesOK[id] is set, which only a change of those words (or of
	// the valid vector count) clears. gen advances with every change of
	// any stored word.
	ones   []int
	onesOK []bool
	gen    uint64

	// run numbers the Runs; simRun[id] == run marks the nodes the latest
	// Run simulated. changed lists the nodes whose words changed since
	// then, marked by changedAt[id] == run+1; Run hands the list over as
	// handed and starts the next one in the other buffer.
	run       uint64
	simRun    []uint64
	changed   []netlist.NodeID
	handed    []netlist.NodeID
	changedAt []uint64
	// evalBuf receives a gate's freshly evaluated words before Run
	// compares them with the stored ones.
	evalBuf []uint64

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
	s := &Simulator{nl: nl, words: words, nvec: words * 64, gen: 1, run: 1}
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
	s.onesOK = append(s.onesOK, make([]bool, add)...)
	s.simRun = append(s.simRun, make([]uint64, add)...)
	s.changedAt = append(s.changedAt, make([]uint64, add)...)
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

// SetInputsRandom fills the input words with independent random bits.
// probs gives the signal probability per primary input (in input order);
// nil means 0.5 everywhere. The generator is deterministic in seed.
func (s *Simulator) SetInputsRandom(seed int64, probs []float64) {
	rng := rand.New(rand.NewSource(seed))
	ins := s.nl.Inputs()
	if probs != nil && len(probs) != len(ins) {
		panic(fmt.Sprintf("sim: %d probabilities for %d inputs", len(probs), len(ins)))
	}
	s.setNumVectors(s.words * 64)
	v := s.scratchWords()
	for i, id := range ins {
		p := 0.5
		if probs != nil {
			p = probs[i]
		}
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
		s.store(id, v)
	}
}

// SetInputWord sets one 64-vector word of a primary input directly;
// useful for driving specific test vectors.
func (s *Simulator) SetInputWord(id netlist.NodeID, w int, bits uint64) {
	n := s.nl.Node(id)
	if n.Kind() != netlist.KindInput {
		panic(fmt.Sprintf("sim: SetInputWord on non-input %s", n.Name()))
	}
	if v := s.stored(id); v[w] != bits {
		v[w] = bits
		s.markChanged(id)
	}
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
	s.setNumVectors(need)
	v := s.scratchWords()
	for i, id := range ins {
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
		s.store(id, v)
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

// Run simulates the whole netlist in topological order, after any edit
// of its structure or inputs. It returns the live nodes whose stored
// words changed since the previous Run: inputs set since then, gates
// whose freshly evaluated words differ from their stored ones, and every
// node the previous Run did not simulate (new or revived). A gate's
// words are rewritten only when they differ, so Ones and the other
// per-node caches survive wherever nothing changed. The slice belongs to
// the simulator and is valid until the next Run.
func (s *Simulator) Run() []netlist.NodeID {
	if s.version != s.nl.Version() {
		s.refreshTopo()
	}
	s.grow()
	buf := s.scratchWords()
	var in [6][]uint64
	for _, id := range s.order {
		fresh := s.simRun[id] != s.run
		s.simRun[id] = s.run + 1
		v := s.stored(id)
		n := s.nl.Node(id)
		if n.Kind() != netlist.KindGate {
			if fresh {
				s.markChanged(id)
			}
			continue
		}
		fanins := n.Fanins()
		for pin, f := range fanins {
			in[pin] = s.values[f]
		}
		s.evalGate(n, in[:len(fanins)], buf)
		if fresh || !slices.Equal(buf, v) {
			copy(v, buf)
			s.markChanged(id)
		}
	}
	s.run++
	s.handed, s.changed = s.changed, s.handed[:0]
	return s.handed
}

// stored returns the node's value storage, allocating it for a node the
// simulator has not held words for.
func (s *Simulator) stored(id netlist.NodeID) []uint64 {
	if int(id) >= len(s.values) {
		s.grow()
	}
	if s.values[id] == nil {
		s.values[id] = make([]uint64, s.words)
	}
	return s.values[id]
}

// store sets an input's words, recording the input when they change.
func (s *Simulator) store(id netlist.NodeID, words []uint64) {
	if v := s.stored(id); !slices.Equal(v, words) {
		copy(v, words)
		s.markChanged(id)
	}
}

// markChanged records that the stored words of id changed.
func (s *Simulator) markChanged(id netlist.NodeID) {
	s.gen++
	s.onesOK[id] = false
	if s.changedAt[id] != s.run+1 {
		s.changedAt[id] = s.run + 1
		s.changed = append(s.changed, id)
	}
}

// setNumVectors sets the valid vector count; every cached count follows
// it.
func (s *Simulator) setNumVectors(n int) {
	if s.nvec != n {
		s.nvec = n
		s.gen++
		clear(s.onesOK)
	}
}

// scratchWords returns the reused one-signal buffer of Run and the input
// setters.
func (s *Simulator) scratchWords() []uint64 {
	s.evalBuf = growWords(s.evalBuf, s.words)
	return s.evalBuf
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
// 1. Each node's count is cached until that node's words change, so
// repeated queries cost no popcount, and neither does a query after a
// Run that left the node's words as they were.
func (s *Simulator) Ones(id netlist.NodeID) int {
	if s.onesOK[id] {
		return s.ones[id]
	}
	n := s.CountOnes(s.Value(id))
	s.ones[id], s.onesOK[id] = n, true
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

// collectTFO returns root plus its transitive fanout, sorted by
// topological position, in buf's storage when it is large enough.
func (s *Simulator) collectTFO(buf []netlist.NodeID, root netlist.NodeID) []netlist.NodeID {
	s.grow()
	s.tfoMark++
	out := buf[:0]
	s.tfoSeen[root] = s.tfoMark
	stack := append(s.tfoStack[:0], root)
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
