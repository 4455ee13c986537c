package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powder/internal/cellib"
)

// TestRandomEditSequencesKeepInvariants applies long random sequences of
// every mutating operation and checks Validate after each step; the
// netlist's cross-referenced fanin/fanout bookkeeping must survive any
// legal interleaving.
func TestRandomEditSequencesKeepInvariants(t *testing.T) {
	lib := cellib.Lib2()
	cells := []string{"inv", "nand2", "nor2", "and2", "or2", "xor2", "aoi21", "mux2", "buf"}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		nl := New("fuzz", lib)
		var pool []NodeID
		for i := 0; i < 5; i++ {
			id, err := nl.AddInput(string(rune('a' + i)))
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, id)
		}
		livePool := func() []NodeID {
			var out []NodeID
			for _, id := range pool {
				if !nl.Node(id).Dead() {
					out = append(out, id)
				}
			}
			return out
		}
		for step := 0; step < 120; step++ {
			live := livePool()
			switch rng.Intn(6) {
			case 0, 1: // add a gate
				cell := lib.Cell(cells[rng.Intn(len(cells))])
				fanins := make([]NodeID, cell.NumPins())
				for p := range fanins {
					fanins[p] = live[rng.Intn(len(live))]
				}
				id, err := nl.AddGate("", cell, fanins)
				if err != nil {
					t.Fatalf("trial %d step %d: AddGate: %v", trial, step, err)
				}
				pool = append(pool, id)
			case 2: // add an output on a random node
				if len(nl.Outputs()) < 6 {
					d := live[rng.Intn(len(live))]
					name := "o" + string(rune('0'+len(nl.Outputs())))
					if err := nl.AddOutput(name, d); err != nil {
						t.Fatalf("trial %d step %d: AddOutput: %v", trial, step, err)
					}
				}
			case 3: // rewire a random pin (cycle attempts may fail, that's fine)
				g := live[rng.Intn(len(live))]
				n := nl.Node(g)
				if n.Kind() == KindGate && len(n.Fanins()) > 0 {
					pin := rng.Intn(len(n.Fanins()))
					nd := live[rng.Intn(len(live))]
					_ = nl.ReplaceFanin(g, pin, nd) // error allowed (cycles)
				}
			case 4: // redirect a random output
				if len(nl.Outputs()) > 0 {
					po := rng.Intn(len(nl.Outputs()))
					nd := live[rng.Intn(len(live))]
					if err := nl.RedirectOutput(po, nd); err != nil {
						t.Fatalf("trial %d step %d: RedirectOutput: %v", trial, step, err)
					}
				}
			case 5: // sweep dead logic
				nl.SweepDead()
			}
			if err := nl.Validate(); err != nil {
				t.Fatalf("trial %d step %d: invariants broken: %v", trial, step, err)
			}
		}
		// Final sanity: topological order covers exactly the live nodes.
		order := nl.TopoOrder()
		liveCount := 0
		nl.LiveNodes(func(*Node) { liveCount++ })
		if len(order) != liveCount {
			t.Fatalf("trial %d: topo order %d nodes, %d live", trial, len(order), liveCount)
		}
	}
}

// TestCloneEqualsOriginalAfterEdits: edits applied identically to original
// and clone produce identical statistics.
func TestCloneEqualsOriginalAfterEdits(t *testing.T) {
	lib := cellib.Lib2()
	rng := rand.New(rand.NewSource(11))
	nl := New("c", lib)
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	g1, _ := nl.AddGate("g1", lib.Cell("nand2"), []NodeID{a, b})
	g2, _ := nl.AddGate("g2", lib.Cell("inv"), []NodeID{g1})
	g3, _ := nl.AddGate("g3", lib.Cell("or2"), []NodeID{g2, a})
	if err := nl.AddOutput("o", g3); err != nil {
		t.Fatal(err)
	}
	cp := nl.Clone()
	for i := 0; i < 20; i++ {
		pin := rng.Intn(2)
		src := []NodeID{a, b, g1, g2}[rng.Intn(4)]
		e1 := nl.ReplaceFanin(g3, pin, src)
		e2 := cp.ReplaceFanin(g3, pin, src)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("edit %d diverged: %v vs %v", i, e1, e2)
		}
	}
	if nl.Area() != cp.Area() || nl.GateCount() != cp.GateCount() {
		t.Errorf("clone diverged from original under identical edits")
	}
}

// referenceDeadCone is the direct fixpoint definition of the dead cone: a
// gate dies when every fanout branch is detached (node a only) or feeds a
// dying gate. DeadCones must agree with it on every query.
func referenceDeadCone(nl *Netlist, a NodeID, detached []Branch, keep ...NodeID) []NodeID {
	det := map[Branch]bool{}
	for _, b := range detached {
		det[b] = true
	}
	kept := map[NodeID]bool{}
	for _, k := range keep {
		kept[k] = true
	}
	dead := map[NodeID]bool{}
	for progress := true; progress; {
		progress = false
		nl.LiveNodes(func(n *Node) {
			if dead[n.id] || n.kind != KindGate || kept[n.id] {
				return
			}
			if n.id != a && len(n.fanouts) == 0 {
				return // already fanout-free: not part of a's cone
			}
			for _, b := range n.fanouts {
				if n.id == a && det[b] {
					continue
				}
				if b.IsPO() || !dead[b.Gate] {
					return
				}
			}
			dead[n.id] = true
			progress = true
		})
	}
	var out []NodeID
	nl.LiveNodes(func(n *Node) {
		if dead[n.id] {
			out = append(out, n.id)
		}
	})
	return out
}

// TestDeadConesMatchReference compares every stem and branch query, with
// and without kept nodes, on random multi-fanout netlists against the
// fixpoint definition.
func TestDeadConesMatchReference(t *testing.T) {
	lib := cellib.Lib2()
	cells := []string{"inv", "nand2", "nor2", "and2", "xor2", "aoi21", "mux2", "buf"}
	queries := 0
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(9100 + trial)))
		nl := New("cone", lib)
		var pool []NodeID
		for i := 0; i < 4; i++ {
			id, _ := nl.AddInput(string(rune('a' + i)))
			pool = append(pool, id)
		}
		for i := 0; i < 30; i++ {
			cell := lib.Cell(cells[rng.Intn(len(cells))])
			fanins := make([]NodeID, cell.NumPins())
			for p := range fanins {
				// Favour recent nodes so deep single-fanout chains form.
				fanins[p] = pool[len(pool)-1-rng.Intn(min(len(pool), 6))]
			}
			id, err := nl.AddGate("", cell, fanins)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, id)
		}
		for i := 0; i < 3; i++ {
			if err := nl.AddOutput(string(rune('x'+i)), pool[len(pool)-1-rng.Intn(8)]); err != nil {
				t.Fatal(err)
			}
		}
		nl.SweepDead()
		dc := NewDeadCones(nl)
		check := func(what string, got, want []NodeID) {
			t.Helper()
			queries++
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d %s: cone %v, want %v", trial, what, got, want)
			}
			for _, id := range want {
				if !dc.Contains(id) {
					t.Fatalf("trial %d %s: Contains(%d) false", trial, what, id)
				}
			}
		}
		nl.LiveNodes(func(n *Node) {
			a := n.ID()
			keep := pool[rng.Intn(len(pool))]
			check("stem", dc.Stem(a), referenceDeadCone(nl, a, n.Fanouts()))
			check("stem+keep", dc.Stem(a, keep), referenceDeadCone(nl, a, n.Fanouts(), keep))
			for _, b := range n.Fanouts() {
				check("branch", dc.Branch(a, b), referenceDeadCone(nl, a, []Branch{b}))
			}
		})
	}
	if queries < 500 {
		t.Fatalf("only %d queries checked", queries)
	}
}

// reachesReference is the reachability search without the topological
// cut: a plain DFS over fanouts.
func reachesReference(nl *Netlist, src, dst NodeID) bool {
	seen := map[NodeID]bool{src: true}
	stack := []NodeID{src}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == dst {
			return true
		}
		for _, b := range nl.Node(id).Fanouts() {
			if !b.IsPO() && !seen[b.Gate] {
				seen[b.Gate] = true
				stack = append(stack, b.Gate)
			}
		}
	}
	return false
}

// TestReachesMatchesReference checks Reaches against an uncached DFS,
// dead nodes included, over random AddGate, ReplaceFanin, AddOutput and
// SweepDead edits and transaction rollbacks, with the topological order
// both cached (Topo called after the edit) and stale.
func TestReachesMatchesReference(t *testing.T) {
	lib := cellib.Lib2()
	cells := []string{"inv", "nand2", "nor2", "and2", "xor2", "aoi21", "mux2"}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(1600 + trial)))
		nl := New("reach", lib)
		for i := 0; i < 4; i++ {
			if _, err := nl.AddInput(string(rune('a' + i))); err != nil {
				t.Fatal(err)
			}
		}
		var txn *Txn
		for step := 0; step < 150; step++ {
			var live []NodeID
			nl.LiveNodes(func(n *Node) { live = append(live, n.ID()) })
			switch rng.Intn(7) {
			case 0, 1:
				cell := lib.Cell(cells[rng.Intn(len(cells))])
				fanins := make([]NodeID, cell.NumPins())
				for p := range fanins {
					fanins[p] = live[rng.Intn(len(live))]
				}
				if _, err := nl.AddGate("", cell, fanins); err != nil {
					t.Fatal(err)
				}
			case 2:
				g := live[rng.Intn(len(live))]
				if n := nl.Node(g); n.Kind() == KindGate {
					_ = nl.ReplaceFanin(g, rng.Intn(len(n.Fanins())), live[rng.Intn(len(live))]) // cycles refused
				}
			case 3:
				if txn == nil {
					txn = nl.Begin()
				} else {
					txn.Rollback()
					txn = nil
				}
			case 4:
				if txn != nil {
					txn.Commit()
					txn = nil
				}
			case 5:
				if len(nl.Outputs()) < 4 {
					if err := nl.AddOutput(fmt.Sprintf("o%d", len(nl.Outputs())), live[rng.Intn(len(live))]); err != nil {
						t.Fatal(err)
					}
				}
			case 6:
				nl.SweepDead()
			}
			if rng.Intn(2) == 0 {
				nl.Topo()
			}
			n := nl.NumNodes()
			for q := 0; q < 40; q++ {
				src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if got, want := nl.Reaches(src, dst), reachesReference(nl, src, dst); got != want {
					t.Fatalf("trial %d step %d: Reaches(%d, %d) = %v, reference %v (topo cached: %v)",
						trial, step, src, dst, got, want, nl.topoCurrent())
				}
			}
		}
	}
}
