package atpg

import (
	"math/rand"
	"testing"

	"powder/internal/logic"
	"powder/internal/netlist"
)

// applyBranchSub applies a plain branch substitution to a clone.
func applyBranchSub(t *testing.T, nl *netlist.Netlist, g netlist.NodeID, pin int, b netlist.NodeID) *netlist.Netlist {
	t.Helper()
	cp := nl.Clone()
	if err := cp.ReplaceFanin(g, pin, b); err != nil {
		t.Fatal(err)
	}
	cp.SweepDead()
	return cp
}

func TestCheckBranchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		nl := randomNetlist(t, rng, 5, 12)
		c := NewIncrementalChecker(nl)
		var gates []netlist.NodeID
		nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate {
				gates = append(gates, n.ID())
			}
		})
		for k := 0; k < 8; k++ {
			g := gates[rng.Intn(len(gates))]
			pin := rng.Intn(len(nl.Node(g).Fanins()))
			b := netlist.NodeID(rng.Intn(nl.NumNodes()))
			nb := nl.Node(b)
			if nb.Dead() || b == g {
				continue
			}
			tfo := nl.TFO(g)
			if tfo[b] {
				continue
			}
			if nl.Node(g).Fanins()[pin] == b {
				continue // no-op
			}
			got, _ := c.CheckBranch(g, pin, Source{B: b, C: netlist.InvalidNode})
			if got == Aborted {
				t.Fatalf("unexpected abort")
			}
			cp := applyBranchSub(t, nl, g, pin, b)
			want := NotPermissible
			if exhaustiveEqual(t, nl, cp) {
				want = Permissible
			}
			if got != want {
				t.Fatalf("trial %d: branch %d.%d <- %d: checker=%v brute=%v", trial, g, pin, b, got, want)
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("too few branch cross-checks: %d", checked)
	}
}

// applyThreeSub applies an OS3 with a fresh 2-input gate to a clone.
func applyThreeSub(t *testing.T, nl *netlist.Netlist, a, b, c netlist.NodeID, cellName string) *netlist.Netlist {
	t.Helper()
	cp := nl.Clone()
	cell := cp.Lib.Cell(cellName)
	h, err := cp.AddGate("", cell, []netlist.NodeID{b, c})
	if err != nil {
		t.Fatal(err)
	}
	branches := append([]netlist.Branch(nil), cp.Node(a).Fanouts()...)
	for _, br := range branches {
		if br.IsPO() {
			if err := cp.RedirectOutput(br.Pin, h); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := cp.ReplaceFanin(br.Gate, br.Pin, h); err != nil {
				t.Fatal(err)
			}
		}
	}
	cp.SweepDead()
	return cp
}

func TestCheckStemThreeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	cellTTs := map[string]logic.TT{
		"and2":  logic.TTFromExpr(logic.And(logic.Var(0), logic.Var(1)), 2),
		"or2":   logic.TTFromExpr(logic.Or(logic.Var(0), logic.Var(1)), 2),
		"xor2":  logic.TTFromExpr(logic.Xor(logic.Var(0), logic.Var(1)), 2),
		"nand2": logic.TTFromExpr(logic.Not(logic.And(logic.Var(0), logic.Var(1))), 2),
	}
	cellNames := []string{"and2", "or2", "xor2", "nand2"}
	checked := 0
	for trial := 0; trial < 25; trial++ {
		nl := randomNetlist(t, rng, 5, 10)
		c := NewIncrementalChecker(nl)
		var gates []netlist.NodeID
		nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate && n.NumFanouts() > 0 {
				gates = append(gates, n.ID())
			}
		})
		if len(gates) == 0 {
			continue
		}
		for k := 0; k < 6; k++ {
			a := gates[rng.Intn(len(gates))]
			b := netlist.NodeID(rng.Intn(nl.NumNodes()))
			cc := netlist.NodeID(rng.Intn(nl.NumNodes()))
			if nl.Node(b).Dead() || nl.Node(cc).Dead() || b == cc {
				continue
			}
			tfo := nl.TFO(a)
			tfo[a] = true
			if tfo[b] || tfo[cc] {
				continue
			}
			name := cellNames[rng.Intn(len(cellNames))]
			got, _ := c.CheckStem(a, Source{B: b, C: cc, Gate: cellTTs[name]})
			if got == Aborted {
				t.Fatalf("unexpected abort")
			}
			cp := applyThreeSub(t, nl, a, b, cc, name)
			want := NotPermissible
			if exhaustiveEqual(t, nl, cp) {
				want = Permissible
			}
			if got != want {
				t.Fatalf("trial %d: OS3 %d <- %s(%d,%d): checker=%v brute=%v",
					trial, a, name, b, cc, got, want)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("too few 3-sub cross-checks: %d", checked)
	}
}

func TestCheckInvertedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	checked := 0
	for trial := 0; trial < 20; trial++ {
		nl := randomNetlist(t, rng, 5, 10)
		c := NewIncrementalChecker(nl)
		var gates []netlist.NodeID
		nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate && n.NumFanouts() > 0 {
				gates = append(gates, n.ID())
			}
		})
		if len(gates) == 0 {
			continue
		}
		for k := 0; k < 6; k++ {
			a := gates[rng.Intn(len(gates))]
			b := netlist.NodeID(rng.Intn(nl.NumNodes()))
			if nl.Node(b).Dead() {
				continue
			}
			tfo := nl.TFO(a)
			tfo[a] = true
			if tfo[b] {
				continue
			}
			got, _ := c.CheckStem(a, Source{B: b, InvertB: true, C: netlist.InvalidNode})
			if got == Aborted {
				t.Fatalf("unexpected abort")
			}
			// Brute force: materialize the inverter on a clone.
			cp := nl.Clone()
			inv, err := cp.AddGate("", cp.Lib.Inverter(), []netlist.NodeID{b})
			if err != nil {
				t.Fatal(err)
			}
			branches := append([]netlist.Branch(nil), cp.Node(a).Fanouts()...)
			for _, br := range branches {
				if br.IsPO() {
					if err := cp.RedirectOutput(br.Pin, inv); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := cp.ReplaceFanin(br.Gate, br.Pin, inv); err != nil {
						t.Fatal(err)
					}
				}
			}
			cp.SweepDead()
			want := NotPermissible
			if exhaustiveEqual(t, nl, cp) {
				want = Permissible
			}
			if got != want {
				t.Fatalf("trial %d: OS2 %d <- !%d: checker=%v brute=%v", trial, a, b, got, want)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("too few inverted cross-checks: %d", checked)
	}
}
