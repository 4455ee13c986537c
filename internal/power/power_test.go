package power

import (
	"math"
	"testing"

	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/sim"
)

// fig2A builds the paper's Figure 2 circuit A (d = a^c, f = d*b) with the
// extra AND gate e = a*b present, matching the figure.
func fig2A(t *testing.T) (*netlist.Netlist, map[string]netlist.NodeID) {
	t.Helper()
	lib := cellib.Lib2()
	nl := netlist.New("fig2a", lib)
	ids := make(map[string]netlist.NodeID)
	for _, in := range []string{"a", "b", "c"} {
		id, err := nl.AddInput(in)
		if err != nil {
			t.Fatal(err)
		}
		ids[in] = id
	}
	mk := func(name, cell string, fanins ...netlist.NodeID) {
		id, err := nl.AddGate(name, lib.Cell(cell), fanins)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	mk("e", "and2", ids["a"], ids["b"])
	mk("d", "xor2", ids["a"], ids["c"])
	mk("f", "and2", ids["d"], ids["b"])
	if err := nl.AddOutput("f", ids["f"]); err != nil {
		t.Fatal(err)
	}
	if err := nl.AddOutput("e", ids["e"]); err != nil {
		t.Fatal(err)
	}
	return nl, ids
}

func TestPaperFigure2Power(t *testing.T) {
	// The paper computes sum C*E = 1.555 for circuit A and 1.132 for
	// circuit B, with AND input load 1 and XOR input load 2, counting only
	// the internal signals a..g (no primary-output pad load).
	nl, ids := fig2A(t)
	nl.POLoad = 0
	m := Estimate(nl, Options{})

	// Circuit A by hand: E(a)=E(b)=E(c)=0.5, E(d)=0.5, E(e)=2*0.25*0.75=0.375,
	// E(f)=2*0.25*0.75=0.375.
	// Loads: C(a)=1(e)+2(d)=3, C(b)=1(e)+1(f)=2, C(c)=2(d), C(d)=1(f), C(e)=0, C(f)=0.
	// sum = 3*0.5 + 2*0.5 + 2*0.5 + 1*0.5 = 1.5+1+1+0.5 = 4.0? The paper's
	// 1.555 counts a different subset; our model includes every stem. What
	// matters for the algorithm is the *difference* between A and B.
	powerA := m.Total()

	// Rewire to circuit B: d's pin a moves to e (g = (a*b)^c).
	if err := nl.ReplaceFanin(ids["d"], 0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	m.Resync()
	powerB := m.Total()
	if powerB >= powerA {
		t.Errorf("figure 2 rewiring must reduce power: A=%v B=%v", powerA, powerB)
	}
}

func TestTransitionProbability(t *testing.T) {
	if got := TransitionProbOf(0.5); got != 0.5 {
		t.Errorf("E(0.5) = %v, want 0.5", got)
	}
	if got := TransitionProbOf(0); got != 0 {
		t.Errorf("E(0) = %v, want 0", got)
	}
	if got := TransitionProbOf(1); got != 0 {
		t.Errorf("E(1) = %v, want 0", got)
	}
	if got := TransitionProbOf(0.25); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("E(0.25) = %v, want 0.375", got)
	}
}

func TestExactTotalSmallCircuit(t *testing.T) {
	nl, ids := fig2A(t)
	m := Estimate(nl, Options{}) // 3 inputs -> exhaustive, exact
	// E values exactly: a,b,c,d = 0.5; e,f = 0.375.
	for _, name := range []string{"a", "b", "c", "d"} {
		if got := m.TransitionProb(ids[name]); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("E(%s) = %v, want 0.5", name, got)
		}
	}
	for _, name := range []string{"e", "f"} {
		if got := m.TransitionProb(ids[name]); math.Abs(got-0.375) > 1e-12 {
			t.Errorf("E(%s) = %v, want 0.375", name, got)
		}
	}
	// Total with POLoad=1: C(a)=3, C(b)=2, C(c)=2, C(d)=1, C(e)=1, C(f)=1.
	want := 3*0.5 + 2*0.5 + 2*0.5 + 1*0.5 + 1*0.375 + 1*0.375
	if got := m.Total(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if got := m.SignalPower(ids["a"]); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("SignalPower(a) = %v, want 1.5", got)
	}
}

func TestResyncAfterAdd(t *testing.T) {
	nl, ids := fig2A(t)
	m := Estimate(nl, Options{})
	lib := nl.Lib
	g, err := nl.AddGate("n1", lib.Cell("nand2"), []netlist.NodeID{ids["e"], ids["f"]})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.AddOutput("n1", g); err != nil {
		t.Fatal(err)
	}
	m.Resync()
	if m.TransitionProb(g) == 0 {
		t.Errorf("new gate has no transition probability")
	}
	m2 := Estimate(nl, Options{})
	if math.Abs(m.Total()-m2.Total()) > 1e-12 {
		t.Errorf("Resync total %v vs fresh %v", m.Total(), m2.Total())
	}
}

func TestScale(t *testing.T) {
	// 0.5 * 5^2 * 1e6 * 2 = 25e6
	if got := Scale(2, 5, 1e6); got != 25e6 {
		t.Errorf("Scale = %v", got)
	}
}

func TestSnapshot(t *testing.T) {
	nl, _ := fig2A(t)
	m := Estimate(nl, Options{})
	r := m.Snapshot()
	if r.Gates != 3 || r.Area != nl.Area() || r.Power != m.Total() {
		t.Errorf("snapshot = %+v", r)
	}
	if r.String() == "" {
		t.Errorf("empty report string")
	}
}

func TestEstimateRandomFallbackForWideCircuits(t *testing.T) {
	lib := cellib.Lib2()
	nl := netlist.New("wide", lib)
	var prev netlist.NodeID
	for i := 0; i < 20; i++ {
		id, err := nl.AddInput(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			prev = id
			continue
		}
		g, err := nl.AddGate("", lib.Cell("and2"), []netlist.NodeID{prev, id})
		if err != nil {
			t.Fatal(err)
		}
		prev = g
	}
	if err := nl.AddOutput("o", prev); err != nil {
		t.Fatal(err)
	}
	m := Estimate(nl, Options{Words: 16, Seed: 2})
	if m.Sim().NumVectors() != 16*64 {
		t.Errorf("expected random vectors for 20-input circuit, got %d", m.Sim().NumVectors())
	}
	if m.Total() <= 0 {
		t.Errorf("power must be positive")
	}
}

func TestDeepAndChainProbability(t *testing.T) {
	// p of an AND chain of k inputs is 2^-k; check E is tiny but
	// nonnegative, and exact under exhaustive simulation.
	lib := cellib.Lib2()
	nl := netlist.New("chain", lib)
	var prev netlist.NodeID
	for i := 0; i < 8; i++ {
		id, err := nl.AddInput(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			prev = id
			continue
		}
		g, err := nl.AddGate("", lib.Cell("and2"), []netlist.NodeID{prev, id})
		if err != nil {
			t.Fatal(err)
		}
		prev = g
	}
	if err := nl.AddOutput("o", prev); err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl, 4)
	if err := s.SetInputsExhaustive(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	m := New(nl, s)
	p := s.Probability(prev)
	if math.Abs(p-1.0/256) > 1e-12 {
		t.Errorf("p(chain) = %v, want %v", p, 1.0/256)
	}
	wantE := 2 * p * (1 - p)
	if got := m.TransitionProb(prev); math.Abs(got-wantE) > 1e-12 {
		t.Errorf("E(chain) = %v, want %v", got, wantE)
	}
}

func TestPinInputsOverridesAndSurvivesRefresh(t *testing.T) {
	nl, ids := fig2A(t)
	m := Estimate(nl, Options{})
	// Pin a's density to a measured 0.9 and c's to 0.1; b stays on the
	// independence model (NaN marker).
	pins := []float64{0.9, math.NaN(), 0.1}
	m.PinInputs(pins)
	if m.TransitionProb(ids["a"]) != 0.9 || m.TransitionProb(ids["c"]) != 0.1 {
		t.Fatalf("pins not applied: E(a)=%g E(c)=%g",
			m.TransitionProb(ids["a"]), m.TransitionProb(ids["c"]))
	}
	if m.TransitionProb(ids["b"]) != 0.5 {
		t.Fatalf("NaN pin disturbed b: %g", m.TransitionProb(ids["b"]))
	}
	// Pins survive a full reestimate and a resync.
	m.Reestimate()
	if m.TransitionProb(ids["a"]) != 0.9 {
		t.Fatalf("pin lost after Reestimate: %g", m.TransitionProb(ids["a"]))
	}
	m.Resync()
	if m.TransitionProb(ids["a"]) != 0.9 || m.TransitionProb(ids["c"]) != 0.1 {
		t.Fatalf("pins lost after Resync: E(a)=%g E(c)=%g",
			m.TransitionProb(ids["a"]), m.TransitionProb(ids["c"]))
	}
	// Internal stems keep the propagated model (d = a^c under exhaustive
	// p=0.5 inputs still has E=0.5: the pin changes E at the PI stem, not
	// the sampled probabilities).
	if m.TransitionProb(ids["d"]) != 0.5 {
		t.Fatalf("internal stem disturbed: %g", m.TransitionProb(ids["d"]))
	}
	// The pinned model totals differently from the uniform one.
	uniform := Estimate(nl, Options{})
	if m.Total() == uniform.Total() {
		t.Fatal("pinned total identical to uniform total")
	}
}

func TestEstimateInputTogglesOption(t *testing.T) {
	nl, ids := fig2A(t)
	m := Estimate(nl, Options{InputToggles: []float64{0.2, 0.2, 0.2}})
	for _, in := range []string{"a", "b", "c"} {
		if m.TransitionProb(ids[in]) != 0.2 {
			t.Fatalf("E(%s) = %g, want pinned 0.2", in, m.TransitionProb(ids[in]))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.PinInputs([]float64{0.5})
}
