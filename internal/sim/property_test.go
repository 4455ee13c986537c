package sim

import (
	"math/rand"
	"slices"
	"testing"

	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/netlist"
)

// randomNetlist builds a random mapped circuit for property testing.
func randomNetlist(t testing.TB, rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	t.Helper()
	lib := cellib.Lib2()
	nl := netlist.New("rand", lib)
	var pool []netlist.NodeID
	for i := 0; i < nIn; i++ {
		id, err := nl.AddInput(logic.VarName(i))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	cells := []string{"inv", "nand2", "nor2", "and2", "or2", "xor2", "aoi21", "oai22", "mux2"}
	for i := 0; i < nGates; i++ {
		cell := nl.Lib.Cell(cells[rng.Intn(len(cells))])
		fanins := make([]netlist.NodeID, cell.NumPins())
		for p := range fanins {
			fanins[p] = pool[rng.Intn(len(pool))]
		}
		id, err := nl.AddGate("", cell, fanins)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	for i := 0; i < 3 && i < len(pool); i++ {
		if err := nl.AddOutput(logic.VarName(20+i), pool[len(pool)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	nl.SweepDead()
	return nl
}

// TestOverlayMatchesCloneResim: the hypothetical propagation must produce
// exactly the values a real rewire + full resimulation would.
func TestOverlayMatchesCloneResim(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	for trial := 0; trial < 20; trial++ {
		nl := randomNetlist(t, rng, 6, 15)
		s := New(nl, 4)
		s.SetInputsRandom(int64(trial), nil)
		s.Run()

		// Pick a random gate and an alternative stem value.
		var gates []netlist.NodeID
		nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate {
				gates = append(gates, n.ID())
			}
		})
		if len(gates) == 0 {
			continue
		}
		root := gates[rng.Intn(len(gates))]
		alt := make([]uint64, s.Words())
		for w := range alt {
			alt[w] = rng.Uint64()
		}
		ov := s.Hypothetical(root, alt)

		// Reference: an identical simulator where root's value is forced by
		// replacing the node's function result — emulate by copying values
		// and resimulating the TFO manually.
		ref := New(nl, 4)
		ref.SetInputsRandom(int64(trial), nil)
		ref.Run()
		// Force root and propagate in topological order.
		forced := make(map[netlist.NodeID][]uint64)
		forced[root] = alt
		for _, id := range nl.TopoOrder() {
			n := nl.Node(id)
			if id == root || n.Kind() != netlist.KindGate {
				continue
			}
			touched := false
			for _, f := range n.Fanins() {
				if _, ok := forced[f]; ok {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			out := make([]uint64, ref.Words())
			var in [6][]uint64
			for pin, f := range n.Fanins() {
				if fv, ok := forced[f]; ok {
					in[pin] = fv
				} else {
					in[pin] = ref.Value(f)
				}
			}
			ref.evalGate(n, in[:len(n.Fanins())], out)
			forced[id] = out
		}
		for id, want := range forced {
			got := ov.Value(id)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("trial %d: overlay value of node %d differs at word %d", trial, id, w)
				}
			}
		}
		// PODiff must agree with the forced PO values.
		for w := 0; w < s.Words(); w++ {
			var want uint64
			for _, po := range nl.Outputs() {
				base := ref.Value(po.Driver)[w]
				cur := base
				if fv, ok := forced[po.Driver]; ok {
					cur = fv[w]
				}
				want |= (cur ^ base) & s.ValidMask(w)
			}
			if ov.PODiff[w] != want {
				t.Fatalf("trial %d: PODiff mismatch at word %d: %x vs %x", trial, w, ov.PODiff[w], want)
			}
		}
	}
}

// TestObservabilityZeroMeansNoPOEffect: forcing any value change on an
// unobservable vector must leave every primary output untouched.
func TestObservabilityZeroMeansNoPOEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for trial := 0; trial < 10; trial++ {
		nl := randomNetlist(t, rng, 6, 12)
		s := New(nl, 1)
		if err := s.SetInputsExhaustive(); err != nil {
			t.Fatal(err)
		}
		s.Run()
		nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() != netlist.KindGate {
				return
			}
			obs := s.StemObservability(n.ID())
			// Flip the node exactly on the unobservable vectors.
			alt := make([]uint64, s.Words())
			base := s.Value(n.ID())
			for w := range alt {
				alt[w] = base[w] ^ (^obs[w] & s.ValidMask(w))
			}
			ov := s.Hypothetical(n.ID(), alt)
			if ov.AnyPODiff() {
				t.Fatalf("trial %d: flipping node %s on unobservable vectors changed a PO",
					trial, n.Name())
			}
		})
	}
}

// TestResimFromIdempotent: resimulating with no change must not alter any
// value.
func TestResimFromIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	nl := randomNetlist(t, rng, 6, 15)
	s := New(nl, 4)
	s.SetInputsRandom(1, nil)
	s.Run()
	snapshot := make(map[netlist.NodeID][]uint64)
	nl.LiveNodes(func(n *netlist.Node) {
		snapshot[n.ID()] = append([]uint64(nil), s.Value(n.ID())...)
	})
	for id := range snapshot {
		s.ResimFrom(id)
	}
	for id, want := range snapshot {
		got := s.Value(id)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("ResimFrom changed node %d without a netlist change", id)
			}
		}
	}
}

// naiveOnes counts the valid vectors on which words is 1, bit by bit.
func naiveOnes(s *Simulator, words []uint64) int {
	n := 0
	for v := 0; v < s.NumVectors(); v++ {
		n += int(words[v/64] >> (v % 64) & 1)
	}
	return n
}

// TestOnesCacheFollowsValueChanges: the cached per-signal counts must
// match a bit-by-bit recount after every kind of value change, including
// exhaustive vector sets that end mid-word.
func TestOnesCacheFollowsValueChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nl := randomNetlist(t, rng, 5, 20)
	s := New(nl, 2)
	checkAll := func(what string) {
		t.Helper()
		nl.LiveNodes(func(n *netlist.Node) {
			id := n.ID()
			if got, want := s.Ones(id), naiveOnes(s, s.Value(id)); got != want {
				t.Fatalf("%s: Ones(%d) = %d, want %d", what, id, got, want)
			}
		})
	}
	if err := s.SetInputsExhaustive(); err != nil { // 32 of 128 vectors
		t.Fatal(err)
	}
	s.Run()
	checkAll("exhaustive")
	s.SetInputsRandom(3, nil)
	s.Run()
	checkAll("random")
	in := nl.Inputs()[0]
	s.SetInputWord(in, 1, ^s.Value(in)[1])
	checkAll("input word")
	s.ResimFrom(in)
	checkAll("resim")
	live := nl.TopoOrder()
	for i := 0; i < 20; i++ {
		x, y := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		and := make([]uint64, s.Words())
		for w := range and {
			and[w] = s.Value(x)[w] & s.Value(y)[w]
		}
		want := naiveOnes(s, and)
		if got := s.CountOnesAnd(s.Value(x), s.Value(y)); got != want {
			t.Fatalf("CountOnesAnd(%d,%d) = %d, want %d", x, y, got, want)
		}
	}
}

// TestObservabilityResultsAreOwned: the observability queries reuse the
// simulator's buffers internally, but each returned mask belongs to the
// caller and survives later queries.
func TestObservabilityResultsAreOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	nl := randomNetlist(t, rng, 6, 24)
	s := New(nl, 2)
	s.SetInputsRandom(9, nil)
	s.Run()
	order := nl.TopoOrder()
	first := s.StemObservability(order[len(order)/2])
	keep := append([]uint64(nil), first...)
	for _, id := range order {
		s.StemObservability(id)
		if n := nl.Node(id); n.Kind() == netlist.KindGate {
			s.BranchObservability(id, 0)
		}
	}
	for w := range keep {
		if first[w] != keep[w] {
			t.Fatalf("a later query overwrote an earlier result")
		}
	}
	if again := s.StemObservability(order[len(order)/2]); !slices.Equal(again, keep) {
		t.Fatalf("repeated query differs: %x vs %x", again, keep)
	}
}
