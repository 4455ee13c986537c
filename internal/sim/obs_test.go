package sim

import (
	"math/rand"
	"slices"
	"testing"

	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/netlist"
	"powder/internal/synth"
)

// checkObsTable compares the observability table with the full
// propagations it replaces, word for word: StemObs for every stem with
// fanout, BranchObs for every branch pin whose driver has several
// fanouts. Stems are queried in a random order so that table entries
// are filled both by direct queries and by the fanout-free-region
// recursion.
func checkObsTable(t *testing.T, s *Simulator, rng *rand.Rand) {
	t.Helper()
	nl := s.Netlist()
	order := nl.TopoOrder()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	got := make([]uint64, s.Words())
	stems, branches := 0, 0
	for _, id := range order {
		n := nl.Node(id)
		if n.NumFanouts() > 0 {
			want := s.StemObservability(id)
			if obs := s.StemObs(id); !slices.Equal(obs, want) {
				t.Fatalf("%s: StemObs %x, StemObservability %x", n.Name(), obs, want)
			}
			stems++
		}
		for pin, drv := range n.Fanins() {
			if nl.Node(drv).NumFanouts() < 2 {
				continue
			}
			want := s.BranchObservability(id, pin)
			s.BranchObs(id, pin, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s pin %d: BranchObs %x, BranchObservability %x", n.Name(), pin, got, want)
			}
			branches++
		}
	}
	if stems == 0 || branches == 0 {
		t.Fatalf("checked %d stems and %d branches; the circuit exercises too little", stems, branches)
	}
}

func TestObsTableMatchesPropagation(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(1600 + trial)))
			nl := randomNetlist(t, rng, 6+rng.Intn(4), 20+rng.Intn(40))
			s := New(nl, 1+rng.Intn(3))
			s.SetInputsRandom(int64(trial), nil)
			s.Run()
			checkObsTable(t, s, rng)
		}
	})
	t.Run("exhaustive", func(t *testing.T) {
		// 5 inputs: 32 valid vectors in 2 words, so the table must keep
		// the invalid bits clear exactly as the propagations do.
		rng := rand.New(rand.NewSource(1616))
		nl := randomNetlist(t, rng, 5, 40)
		s := New(nl, 2)
		if err := s.SetInputsExhaustive(); err != nil {
			t.Fatal(err)
		}
		s.Run()
		if s.NumVectors() >= 64*s.Words() {
			t.Fatalf("%d valid vectors: want fewer than %d", s.NumVectors(), 64*s.Words())
		}
		checkObsTable(t, s, rng)
	})
	t.Run("spla", func(t *testing.T) {
		spec, err := circuits.ByName("spla")
		if err != nil {
			t.Fatal(err)
		}
		nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
		if err != nil {
			t.Fatal(err)
		}
		s := New(nl, 4)
		s.SetInputsRandom(1, nil)
		s.Run()
		checkObsTable(t, s, rand.New(rand.NewSource(16)))
	})
}

// TestObsTableFollowsChanges checks that the table is recomputed after
// the simulated values change and after a structural edit.
func TestObsTableFollowsChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1617))
	nl := randomNetlist(t, rng, 7, 40)
	s := New(nl, 2)
	s.SetInputsRandom(1, nil)
	s.Run()
	checkObsTable(t, s, rng)

	s.SetInputsRandom(2, nil)
	s.Run()
	checkObsTable(t, s, rng)

	// Rewire some pin to a primary input (never a cycle) and resync.
	for _, id := range nl.TopoOrder() {
		n := nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		if err := nl.ReplaceFanin(id, 0, nl.Inputs()[0]); err != nil {
			t.Fatal(err)
		}
		break
	}
	s.Resync()
	checkObsTable(t, s, rng)
}

// evalGateReference is the gate evaluation the compiled cell programs
// replaced: the cell's expression tree walked once per word.
func evalGateReference(n *netlist.Node, in [][]uint64, out []uint64) {
	args := make([]uint64, len(in))
	for w := range out {
		for p := range in {
			args[p] = in[p][w]
		}
		out[w] = n.Cell().Function.EvalWords(args)
	}
}

// TestRunMatchesExprReference checks the compiled simulation against a
// full simulation by expression-tree evaluation.
func TestRunMatchesExprReference(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(1700 + trial)))
		nl := randomNetlist(t, rng, 8, 60)
		s := New(nl, 3)
		s.SetInputsRandom(int64(trial), nil)
		s.Run()
		ref := make(map[netlist.NodeID][]uint64)
		for _, id := range nl.Inputs() {
			ref[id] = s.Value(id)
		}
		for _, id := range nl.TopoOrder() {
			n := nl.Node(id)
			if n.Kind() != netlist.KindGate {
				continue
			}
			in := make([][]uint64, len(n.Fanins()))
			for p, f := range n.Fanins() {
				in[p] = ref[f]
			}
			ref[id] = make([]uint64, s.Words())
			evalGateReference(n, in, ref[id])
			if !slices.Equal(s.Value(id), ref[id]) {
				t.Fatalf("trial %d: %s (%s) simulates %x, expression reference %x",
					trial, n.Name(), n.Cell().Name, s.Value(id), ref[id])
			}
		}
	}
}
