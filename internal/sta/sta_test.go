package sta

import (
	"math"
	"testing"

	"powder/internal/cellib"
	"powder/internal/netlist"
)

// chain builds in -> inv1 -> inv2 -> ... -> invK -> out.
func chain(t *testing.T, k int) (*netlist.Netlist, []netlist.NodeID) {
	t.Helper()
	lib := cellib.Lib2()
	nl := netlist.New("chain", lib)
	in, err := nl.AddInput("in")
	if err != nil {
		t.Fatal(err)
	}
	ids := []netlist.NodeID{in}
	prev := in
	for i := 0; i < k; i++ {
		g, err := nl.AddGate("", lib.Cell("inv"), []netlist.NodeID{prev})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, g)
		prev = g
	}
	if err := nl.AddOutput("out", prev); err != nil {
		t.Fatal(err)
	}
	return nl, ids
}

func TestChainDelay(t *testing.T) {
	nl, ids := chain(t, 3)
	lib := nl.Lib
	inv := lib.Cell("inv")
	a := New(nl, 0)
	// Each inner inverter drives one inv pin (cap 0.9); the last drives the
	// PO load (1.0).
	dInner := inv.Delay(inv.Pins[0].Cap)
	dLast := inv.Delay(nl.POLoad)
	want := 2*dInner + dLast
	if math.Abs(a.Delay()-want) > 1e-9 {
		t.Errorf("Delay = %v, want %v", a.Delay(), want)
	}
	// Arrival is monotone along the chain.
	for i := 1; i < len(ids); i++ {
		if a.Arrival(ids[i]) <= a.Arrival(ids[i-1]) {
			t.Errorf("arrival not monotone at %d", i)
		}
	}
	// Unconstrained analysis: the whole chain is critical, zero slack.
	for _, id := range ids {
		if math.Abs(a.Slack(id)) > 1e-9 {
			t.Errorf("slack(%d) = %v, want 0", id, a.Slack(id))
		}
	}
	if !a.Met() {
		t.Errorf("unconstrained analysis must always be met")
	}
}

func TestConstraintSlack(t *testing.T) {
	nl, ids := chain(t, 3)
	a := New(nl, 0)
	d := a.Delay()

	loose := New(nl, d+2.0)
	for _, id := range ids {
		if math.Abs(loose.Slack(id)-2.0) > 1e-9 {
			t.Errorf("loose slack = %v, want 2", loose.Slack(id))
		}
	}
	if !loose.Met() {
		t.Errorf("loose constraint must be met")
	}

	tight := New(nl, d/2)
	if tight.Met() {
		t.Errorf("infeasible constraint reported met")
	}
	if tight.Slack(ids[len(ids)-1]) >= 0 {
		t.Errorf("negative slack expected")
	}
}

// diamond builds a two-path circuit: slow path through 2 gates, fast path
// through 1, converging on an AND.
func diamond(t *testing.T) (*netlist.Netlist, map[string]netlist.NodeID) {
	t.Helper()
	lib := cellib.Lib2()
	nl := netlist.New("diamond", lib)
	ids := make(map[string]netlist.NodeID)
	var err error
	ids["a"], err = nl.AddInput("a")
	if err != nil {
		t.Fatal(err)
	}
	ids["b"], _ = nl.AddInput("b")
	mk := func(name, cell string, fanins ...netlist.NodeID) {
		id, err := nl.AddGate(name, lib.Cell(cell), fanins)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	mk("s1", "inv", ids["a"])
	mk("s2", "inv", ids["s1"])
	mk("join", "and2", ids["s2"], ids["b"])
	if err := nl.AddOutput("join", ids["join"]); err != nil {
		t.Fatal(err)
	}
	return nl, ids
}

func TestDiamondSlacks(t *testing.T) {
	nl, ids := diamond(t)
	a := New(nl, 0)
	// The slow path a->s1->s2->join is critical; b has positive slack.
	if math.Abs(a.Slack(ids["s2"])) > 1e-9 {
		t.Errorf("slack(s2) = %v, want 0", a.Slack(ids["s2"]))
	}
	if a.Slack(ids["b"]) <= 0 {
		t.Errorf("slack(b) = %v, want positive", a.Slack(ids["b"]))
	}
	// Required time at the branch b->join equals required(join) - D(join).
	br := netlist.Branch{Gate: ids["join"], Pin: 1}
	want := a.Required(ids["join"]) - a.GateDelay(ids["join"])
	if got := a.RequiredAtBranch(br); math.Abs(got-want) > 1e-12 {
		t.Errorf("RequiredAtBranch = %v, want %v", got, want)
	}
}

func TestExtraLoadOK(t *testing.T) {
	nl, ids := diamond(t)
	a := New(nl, 0)
	// b has slack; a small extra load is fine, a huge one is not.
	if !a.ExtraLoadOK(ids["b"], 0.1) {
		// b is an ideal input driver: any load is fine.
		t.Errorf("input with zero drive must accept extra load")
	}
	// s2 is on the critical path with zero slack: any positive load fails.
	if a.ExtraLoadOK(ids["s2"], 1.0) {
		t.Errorf("zero-slack gate must reject extra load")
	}
	if !a.ExtraLoadOK(ids["s2"], 0) {
		t.Errorf("zero extra load is always fine")
	}
	// With a relaxed constraint, s2 gains slack and accepts load.
	relaxed := New(nl, a.Delay()*2)
	if !relaxed.ExtraLoadOK(ids["s2"], 1.0) {
		t.Errorf("relaxed constraint should accept extra load")
	}
}

func TestArrivalWithExtraLoad(t *testing.T) {
	nl, ids := diamond(t)
	a := New(nl, 0)
	s1 := ids["s1"]
	drive := nl.Node(s1).Cell().Drive
	got := a.ArrivalWithExtraLoad(s1, 2.0)
	want := a.Arrival(s1) + 2.0*drive
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ArrivalWithExtraLoad = %v, want %v", got, want)
	}
}

func TestCriticalPath(t *testing.T) {
	nl, ids := diamond(t)
	a := New(nl, 0)
	path := a.CriticalPath()
	if len(path) != 4 {
		t.Fatalf("critical path length %d, want 4", len(path))
	}
	want := []netlist.NodeID{ids["a"], ids["s1"], ids["s2"], ids["join"]}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("critical path[%d] = %d, want %d", i, path[i], want[i])
		}
	}
}

func TestRequiredInfinityForDanglingGates(t *testing.T) {
	nl, ids := diamond(t)
	lib := nl.Lib
	// A gate with no path to any PO has infinite required time.
	g, err := nl.AddGate("dangle", lib.Cell("inv"), []netlist.NodeID{ids["b"]})
	if err != nil {
		t.Fatal(err)
	}
	a := New(nl, 0)
	if !math.IsInf(a.Required(g), 1) {
		t.Errorf("dangling gate required = %v, want +Inf", a.Required(g))
	}
}
