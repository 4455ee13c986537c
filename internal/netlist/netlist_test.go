package netlist

import (
	"testing"

	"powder/internal/cellib"
)

// buildExample builds the paper's Figure 2 circuit A:
//
//	d = a XOR c; f = d AND b (primary output f)
//
// plus an extra AND e = a*b used by the figure's rewiring.
func buildExample(t *testing.T) (*Netlist, map[string]NodeID) {
	t.Helper()
	lib := cellib.Lib2()
	nl := New("fig2", lib)
	ids := make(map[string]NodeID)
	for _, in := range []string{"a", "b", "c"} {
		id, err := nl.AddInput(in)
		if err != nil {
			t.Fatal(err)
		}
		ids[in] = id
	}
	var err error
	ids["e"], err = nl.AddGate("e", lib.Cell("and2"), []NodeID{ids["a"], ids["b"]})
	if err != nil {
		t.Fatal(err)
	}
	ids["d"], err = nl.AddGate("d", lib.Cell("xor2"), []NodeID{ids["a"], ids["c"]})
	if err != nil {
		t.Fatal(err)
	}
	ids["f"], err = nl.AddGate("f", lib.Cell("and2"), []NodeID{ids["d"], ids["b"]})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.AddOutput("f", ids["f"]); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddOutput("e", ids["e"]); err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("example invalid: %v", err)
	}
	return nl, ids
}

func TestConstruction(t *testing.T) {
	nl, ids := buildExample(t)
	if nl.GateCount() != 3 {
		t.Errorf("GateCount = %d, want 3", nl.GateCount())
	}
	if len(nl.Inputs()) != 3 || len(nl.Outputs()) != 2 {
		t.Errorf("inputs/outputs = %d/%d", len(nl.Inputs()), len(nl.Outputs()))
	}
	wantArea := 1856.0*2 + 2784.0
	if nl.Area() != wantArea {
		t.Errorf("Area = %v, want %v", nl.Area(), wantArea)
	}
	// a fans out to e (pin 0, cap 1) and d (pin 0, cap 2).
	if got := nl.Load(ids["a"]); got != 3 {
		t.Errorf("Load(a) = %v, want 3", got)
	}
	// f drives one PO.
	if got := nl.Load(ids["f"]); got != nl.POLoad {
		t.Errorf("Load(f) = %v, want %v", got, nl.POLoad)
	}
	if !nl.IsPODriver(ids["f"]) || nl.IsPODriver(ids["d"]) {
		t.Errorf("IsPODriver misreports")
	}
	if nl.FindNode("d") != ids["d"] || nl.FindNode("zz") != InvalidNode {
		t.Errorf("FindNode broken")
	}
}

func TestConstructionErrors(t *testing.T) {
	lib := cellib.Lib2()
	nl := New("t", lib)
	a, _ := nl.AddInput("a")
	if _, err := nl.AddInput("a"); err == nil {
		t.Errorf("duplicate input should fail")
	}
	if _, err := nl.AddInput(""); err == nil {
		t.Errorf("empty input name should fail")
	}
	if _, err := nl.AddGate("g", lib.Cell("and2"), []NodeID{a}); err == nil {
		t.Errorf("wrong fanin count should fail")
	}
	if _, err := nl.AddGate("g", lib.Cell("and2"), []NodeID{a, NodeID(99)}); err == nil {
		t.Errorf("bad fanin should fail")
	}
	if _, err := nl.AddGate("a", lib.Cell("inv"), []NodeID{a}); err == nil {
		t.Errorf("duplicate name should fail")
	}
	if err := nl.AddOutput("o", NodeID(99)); err == nil {
		t.Errorf("bad output driver should fail")
	}
	if err := nl.AddOutput("o", a); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddOutput("o", a); err == nil {
		t.Errorf("duplicate output name should fail")
	}
	foreign, _ := cellib.NewCell("alien", 1, []cellib.Pin{{Name: "a", Cap: 1}}, "O",
		lib.Cell("inv").Function, 1, 0.1, 0)
	if _, err := nl.AddGate("g2", foreign, []NodeID{a}); err == nil {
		t.Errorf("cell from another library should be rejected")
	}
}

func TestTopoOrder(t *testing.T) {
	nl, _ := buildExample(t)
	order := nl.TopoOrder()
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	nl.LiveNodes(func(n *Node) {
		for _, f := range n.Fanins() {
			if pos[f] >= pos[n.ID()] {
				t.Errorf("fanin %d after node %d in topo order", f, n.ID())
			}
		}
	})
	if len(order) != 6 {
		t.Errorf("topo order has %d nodes, want 6", len(order))
	}
}

func TestTFOAndTFI(t *testing.T) {
	nl, ids := buildExample(t)
	tfo := nl.TFO(ids["a"])
	if !tfo[ids["d"]] || !tfo[ids["e"]] || !tfo[ids["f"]] {
		t.Errorf("TFO(a) = %v", tfo)
	}
	if tfo[ids["a"]] {
		t.Errorf("TFO must exclude the node itself")
	}
	tfi := nl.TFI(ids["f"])
	if !tfi[ids["a"]] || !tfi[ids["b"]] || !tfi[ids["c"]] || !tfi[ids["d"]] {
		t.Errorf("TFI(f) = %v", tfi)
	}
	if tfi[ids["e"]] {
		t.Errorf("e is not in TFI(f)")
	}
	if !nl.Reaches(ids["a"], ids["f"]) || nl.Reaches(ids["f"], ids["a"]) {
		t.Errorf("Reaches broken")
	}
}

func TestLevels(t *testing.T) {
	nl, ids := buildExample(t)
	lv := nl.Levels()
	if lv[ids["a"]] != 0 || lv[ids["d"]] != 1 || lv[ids["f"]] != 2 {
		t.Errorf("levels: a=%d d=%d f=%d", lv[ids["a"]], lv[ids["d"]], lv[ids["f"]])
	}
}

func TestReplaceFanin(t *testing.T) {
	nl, ids := buildExample(t)
	// Figure 2 rewiring: XOR input branch from a moves to e.
	if err := nl.ReplaceFanin(ids["d"], 0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("after rewire: %v", err)
	}
	if got := nl.Load(ids["a"]); got != 1 {
		t.Errorf("Load(a) after rewire = %v, want 1", got)
	}
	if got := nl.Load(ids["e"]); got != nl.POLoad+2 {
		t.Errorf("Load(e) after rewire = %v", got)
	}
	// Cycle rejection: f feeds nothing downstream of d... rewire d's pin to f
	// would create d->f->? No: f is in TFO(d), so d's fanin cannot be f.
	if err := nl.ReplaceFanin(ids["d"], 0, ids["f"]); err == nil {
		t.Errorf("cycle-creating rewire should fail")
	}
	// Self loop.
	if err := nl.ReplaceFanin(ids["d"], 0, ids["d"]); err == nil {
		t.Errorf("self-loop rewire should fail")
	}
}

func TestRedirectOutput(t *testing.T) {
	nl, ids := buildExample(t)
	if err := nl.RedirectOutput(0, ids["d"]); err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("after redirect: %v", err)
	}
	if nl.Outputs()[0].Driver != ids["d"] {
		t.Errorf("output not redirected")
	}
	if nl.Load(ids["f"]) != 0 {
		t.Errorf("old driver should have no load, has %v", nl.Load(ids["f"]))
	}
	if err := nl.RedirectOutput(9, ids["d"]); err == nil {
		t.Errorf("bad PO index should fail")
	}
}

func TestRemoveAndSweep(t *testing.T) {
	nl, ids := buildExample(t)
	// Detach output f and rewire so that gates d and f become dead.
	if err := nl.RedirectOutput(0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	removed := nl.SweepDead()
	if len(removed) != 2 {
		t.Fatalf("SweepDead removed %d gates, want 2 (d and f)", len(removed))
	}
	if !nl.Node(ids["f"]).Dead() || !nl.Node(ids["d"]).Dead() {
		t.Errorf("d and f should be dead")
	}
	if nl.Node(ids["e"]).Dead() {
		t.Errorf("e must stay alive")
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("after sweep: %v", err)
	}
	if nl.GateCount() != 1 {
		t.Errorf("GateCount = %d, want 1", nl.GateCount())
	}
	// Removing an input is rejected; removing a gate with fanouts too.
	if err := nl.RemoveGate(ids["a"]); err == nil {
		t.Errorf("removing an input should fail")
	}
	if err := nl.RemoveGate(ids["e"]); err == nil {
		t.Errorf("removing a driven gate should fail")
	}
}

func TestDeadConeIfDetached(t *testing.T) {
	nl, ids := buildExample(t)
	dc := NewDeadCones(nl)
	// If stem d loses its only branch (f pin 0), d dies; a, c stay (they
	// still feed live logic or are inputs).
	cone := dc.Stem(ids["d"])
	if len(cone) != 1 || cone[0] != ids["d"] || !dc.Contains(ids["d"]) || dc.Contains(ids["a"]) {
		t.Errorf("dead cone of d = %v, want [d]", cone)
	}
	// Detaching a single branch of stem a (multi-fanout) kills nothing.
	cone = dc.Branch(ids["a"], Branch{Gate: ids["d"], Pin: 0})
	if len(cone) != 0 || dc.Contains(ids["d"]) {
		t.Errorf("dead cone of single branch of a = %v, want empty", cone)
	}
	// A kept node survives, and so does everything only it depends on.
	if cone = dc.Stem(ids["d"], ids["d"]); len(cone) != 0 {
		t.Errorf("dead cone of kept d = %v, want empty", cone)
	}
	// Build a chain g1 -> g2 where killing g2's branch kills both.
	lib := nl.Lib
	g1, _ := nl.AddGate("g1", lib.Cell("inv"), []NodeID{ids["c"]})
	g2, _ := nl.AddGate("g2", lib.Cell("inv"), []NodeID{g1})
	g3, _ := nl.AddGate("g3", lib.Cell("and2"), []NodeID{g2, ids["b"]})
	if err := nl.AddOutput("o3", g3); err != nil {
		t.Fatal(err)
	}
	// The buffers grow with the netlist.
	cone = dc.Stem(g2)
	if len(cone) != 2 || cone[0] != g1 || cone[1] != g2 {
		t.Errorf("dead cone of g2 = %v, want [g1 g2]", cone)
	}
	// Keeping g1 stops the cone at g2.
	if cone = dc.Stem(g2, g1); len(cone) != 1 || cone[0] != g2 {
		t.Errorf("dead cone of g2 keeping g1 = %v, want [g2]", cone)
	}
}

func TestCloneIndependence(t *testing.T) {
	nl, ids := buildExample(t)
	cp := nl.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if err := cp.ReplaceFanin(ids["d"], 0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	// The original must be untouched.
	if nl.Node(ids["d"]).Fanins()[0] != ids["a"] {
		t.Errorf("mutating clone changed original")
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("original invalid after clone mutation: %v", err)
	}
	if cp.Area() != nl.Area() {
		t.Errorf("clone area differs")
	}
}

func TestVersionBumps(t *testing.T) {
	nl, ids := buildExample(t)
	v := nl.Version()
	if err := nl.ReplaceFanin(ids["d"], 0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	if nl.Version() == v {
		t.Errorf("version must bump on rewire")
	}
	v = nl.Version()
	// No-op rewire (same driver) must not bump.
	if err := nl.ReplaceFanin(ids["d"], 0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	if nl.Version() != v {
		t.Errorf("no-op rewire must not bump version")
	}
}

func TestAutoNames(t *testing.T) {
	lib := cellib.Lib2()
	nl := New("t", lib)
	a, _ := nl.AddInput("a")
	g1, err := nl.AddGate("", lib.Cell("inv"), []NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := nl.AddGate("", lib.Cell("inv"), []NodeID{g1})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Node(g1).Name() == nl.Node(g2).Name() {
		t.Errorf("auto names must be unique")
	}
}
