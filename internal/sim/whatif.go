package sim

import (
	"powder/internal/netlist"
)

// Overlay holds the result of a hypothetical propagation: the values every
// affected node would take if the root signal were replaced. An Overlay is
// valid only until the next Hypothetical or observability call on the same
// Simulator: the scratch buffers, Affected and PODiff included, are reused.
type Overlay struct {
	s     *Simulator
	epoch int64
	// Affected lists the root and its transitive fanout in topological
	// order; these are the nodes whose Value may differ.
	Affected []netlist.NodeID
	// PODiff[w] has bit b set when sample vector w*64+b changes at least
	// one primary output.
	PODiff []uint64
}

// checkFresh panics if a newer Hypothetical call has recycled the scratch
// buffers this overlay points into.
func (o *Overlay) checkFresh() {
	if o.s.epoch != o.epoch {
		panic("sim: overlay used after a newer Hypothetical call")
	}
}

// Value returns the node's hypothetical value words: the overlay value for
// affected nodes and the base simulation value otherwise. The slice must
// not be mutated.
func (o *Overlay) Value(id netlist.NodeID) []uint64 {
	o.checkFresh()
	if o.s.scratchID[id] == o.epoch {
		return o.s.scratch[id]
	}
	return o.s.Value(id)
}

// Changed reports whether the node's hypothetical value differs from its
// base value on any valid vector.
func (o *Overlay) Changed(id netlist.NodeID) bool {
	o.checkFresh()
	if o.s.scratchID[id] != o.epoch {
		return false
	}
	base := o.s.Value(id)
	alt := o.s.scratch[id]
	for w := range alt {
		if (alt[w]^base[w])&o.s.ValidMask(w) != 0 {
			return true
		}
	}
	return false
}

// AnyPODiff reports whether any primary output changes on any valid vector.
func (o *Overlay) AnyPODiff() bool {
	for _, w := range o.PODiff {
		if w != 0 {
			return true
		}
	}
	return false
}

// Hypothetical computes the consequences of replacing the stem value of
// root with alt: the transitive fanout is re-evaluated into scratch storage
// (the base values stay untouched) and the primary-output difference mask
// is collected. alt must have the simulator's word count.
func (s *Simulator) Hypothetical(root netlist.NodeID, alt []uint64) *Overlay {
	s.propagate(root, alt)
	return &Overlay{s: s, epoch: s.epoch, Affected: s.affected, PODiff: s.poDiff}
}

// propagate is Hypothetical without the Overlay: it leaves the affected
// nodes in s.affected, their values in the scratch slots of the new epoch
// and the primary-output difference mask in s.poDiff.
func (s *Simulator) propagate(root netlist.NodeID, alt []uint64) {
	if len(alt) != s.words {
		panic("sim: alt word count mismatch")
	}
	if s.version != s.nl.Version() {
		s.refreshTopo()
		s.version = s.nl.Version()
	}
	s.epoch++
	s.affected = s.collectTFO(s.affected, root)
	s.poDiff = growWords(s.poDiff, s.words)
	clear(s.poDiff)

	s.setScratch(root, alt)
	var in [6][]uint64
	for _, id := range s.affected {
		n := s.nl.Node(id)
		if id != root {
			fanins := n.Fanins()
			for pin, f := range fanins {
				if s.scratchID[f] == s.epoch {
					in[pin] = s.scratch[f]
				} else {
					in[pin] = s.values[f]
				}
			}
			dst := s.scratchFor(id)
			s.evalGate(n, in[:len(fanins)], dst)
		}
		if s.nl.IsPODriver(id) {
			base := s.values[id]
			cur := s.scratch[id]
			for w := 0; w < s.words; w++ {
				s.poDiff[w] |= (cur[w] ^ base[w]) & s.ValidMask(w)
			}
		}
	}
}

// growWords returns buf resized to n words, reallocating only when it is
// too small.
func growWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// setScratch copies alt into root's scratch slot for the current epoch.
func (s *Simulator) setScratch(root netlist.NodeID, alt []uint64) {
	dst := s.scratchFor(root)
	copy(dst, alt)
}

func (s *Simulator) scratchFor(id netlist.NodeID) []uint64 {
	if s.scratch[id] == nil || len(s.scratch[id]) != s.words {
		s.scratch[id] = make([]uint64, s.words)
	}
	s.scratchID[id] = s.epoch
	return s.scratch[id]
}

// GateValueWithPin evaluates gate g's cell function with pin pin's words
// replaced by words, writing into out (length Words). The other pins read
// the base simulation values.
func (s *Simulator) GateValueWithPin(g netlist.NodeID, pin int, words []uint64, out []uint64) {
	n := s.nl.Node(g)
	var in [6][]uint64
	fanins := n.Fanins()
	for p, f := range fanins {
		if p == pin {
			in[p] = words
		} else {
			in[p] = s.values[f]
		}
	}
	s.evalGate(n, in[:len(fanins)], out)
}

// StemObservability returns the mask of sample vectors on which
// complementing the stem signal of id changes at least one primary output.
// This is the exact (per-sample) observability don't-care information the
// candidate filter uses.
func (s *Simulator) StemObservability(id netlist.NodeID) []uint64 {
	base := s.Value(id)
	s.altBuf = growWords(s.altBuf, s.words)
	for w := range s.altBuf {
		s.altBuf[w] = ^base[w]
	}
	s.propagate(id, s.altBuf)
	return append([]uint64(nil), s.poDiff...)
}

// BranchObservability returns the mask of sample vectors on which
// complementing the branch signal feeding pin pin of gate g changes at
// least one primary output.
func (s *Simulator) BranchObservability(g netlist.NodeID, pin int) []uint64 {
	n := s.nl.Node(g)
	src := s.Value(n.Fanins()[pin])
	s.pinBuf = growWords(s.pinBuf, s.words)
	for w := range s.pinBuf {
		s.pinBuf[w] = ^src[w]
	}
	s.altBuf = growWords(s.altBuf, s.words)
	s.GateValueWithPin(g, pin, s.pinBuf, s.altBuf)
	s.propagate(g, s.altBuf)
	return append([]uint64(nil), s.poDiff...)
}

// StemObs returns StemObservability(id) from the simulator's
// observability table: each stem's mask is computed at most once per
// state of the simulated values and the structure, into one slab the
// simulator reuses. Inside a fanout-free region no propagation is
// needed (critical-path tracing, Abramovici, Menon and Miller, DAC
// 1983): a stem whose only fanout is pin p of gate g is observable
// exactly where g is sensitive to p and g's stem is observable. Only
// stems with several fanouts propagate. The slice belongs to the
// simulator; it must not be mutated, and it is valid until the values
// or the structure change.
func (s *Simulator) StemObs(id netlist.NodeID) []uint64 {
	if s.obsGen != s.gen || s.obsVersion != s.nl.Version() {
		s.grow()
		s.obsGen, s.obsVersion = s.gen, s.nl.Version()
		s.obsEpoch++
		s.obsSlab = growWords(s.obsSlab, len(s.values)*s.words)
	}
	return s.stemObs(id)
}

// BranchObs writes BranchObservability(g, pin) into out (Words long):
// the branch is observable where g is sensitive to pin and g's stem is
// observable.
func (s *Simulator) BranchObs(g netlist.NodeID, pin int, out []uint64) {
	obs := s.StemObs(g)
	s.sensitized(g, pin, out)
	for w := range out {
		out[w] &= obs[w]
	}
}

// stemObs is StemObs on a current table.
func (s *Simulator) stemObs(id netlist.NodeID) []uint64 {
	m := s.obsSlab[int(id)*s.words : (int(id)+1)*s.words]
	if s.obsStamp[id] == s.obsEpoch {
		return m
	}
	fo := s.nl.Node(id).Fanouts()
	switch {
	case s.nl.IsPODriver(id):
		for w := range m {
			m[w] = s.ValidMask(w)
		}
	case len(fo) == 0:
		clear(m)
	case len(fo) == 1:
		s.sensitized(fo[0].Gate, fo[0].Pin, m)
		obs := s.stemObs(fo[0].Gate)
		for w := range m {
			m[w] &= obs[w]
		}
	default:
		base := s.Value(id)
		s.altBuf = growWords(s.altBuf, s.words)
		for w := range s.altBuf {
			s.altBuf[w] = ^base[w]
		}
		s.propagate(id, s.altBuf)
		copy(m, s.poDiff)
	}
	s.obsStamp[id] = s.obsEpoch
	return m
}

// sensitized writes into out the vectors on which complementing pin pin
// of gate g complements g's output.
func (s *Simulator) sensitized(g netlist.NodeID, pin int, out []uint64) {
	src := s.Value(s.nl.Node(g).Fanins()[pin])
	s.pinBuf = growWords(s.pinBuf, s.words)
	for w := range s.pinBuf {
		s.pinBuf[w] = ^src[w]
	}
	s.GateValueWithPin(g, pin, s.pinBuf, out)
	val := s.Value(g)
	for w := range out {
		out[w] ^= val[w]
	}
}
