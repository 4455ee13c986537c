package seq

import (
	"errors"
	"math"
	"strings"
	"testing"

	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/sim"
)

const counter2 = `
.model counter2
.inputs en
.outputs wrap
.latch n0 q0 re clk 0
.latch n1 q1 re clk 0
.gate xor2 a=q0 b=en O=n0
.gate and2 a=en b=q0 O=c0
.gate xor2 a=q1 b=c0 O=n1
.gate and2 a=c0 b=q1 O=wrap
.end
`

// crossCoupled has two registers whose next-state functions invert each
// other's state: q0' = !q1, q1' = !q0. From init (0,0) the undamped
// probability map oscillates (0,0)→(1,1)→(0,0) forever; any damping pulls
// it into the p = 0.5 fixpoint.
const crossCoupled = `
.model xcpl
.inputs a
.outputs y
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.gate inv a=q1 O=d0
.gate inv a=q0 O=d1
.gate and2 a=q0 b=a O=y
.end
`

func mustCircuit(t *testing.T, src string) *Circuit {
	t.Helper()
	m, err := blif.ReadModel(strings.NewReader(src), cellib.Lib2())
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSteadyStateCounter(t *testing.T) {
	c := mustCircuit(t, counter2)
	res, err := SteadyState(c, FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With p(en)=0.5 every counter bit settles at 0.5: the toggle map is
	// q' = q ⊕ carry = q + p_c - 2·q·p_c, whose fixpoint is 0.5 for any
	// carry probability in (0,1].
	for i, p := range res.StateProbs {
		if math.Abs(p-0.5) > 1e-4 {
			t.Errorf("state %d converged to %g, want 0.5", i, p)
		}
	}
	if res.Residual > 1e-6 {
		t.Errorf("residual %g above tolerance", res.Residual)
	}
	if got := res.CoreInputProbs(); len(got) != 3 {
		t.Errorf("core input probs length %d, want 3", len(got))
	}
}

func TestSteadyStateBiasedInput(t *testing.T) {
	c := mustCircuit(t, counter2)
	// en pinned high makes bit 0 toggle every cycle (q0' = !q0): the
	// undamped map is 2-periodic, so this doubles as the damping case.
	res, err := SteadyState(c, FixpointOptions{InputProbs: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.StateProbs[0]-0.5) > 1e-4 {
		t.Errorf("q0 converged to %g, want 0.5", res.StateProbs[0])
	}
	// en pinned low freezes the counter at its init state.
	res, err = SteadyState(c, FixpointOptions{InputProbs: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.StateProbs {
		if p != 0 {
			t.Errorf("state %d = %g with en=0, want 0 (init value)", i, p)
		}
	}
}

func TestSteadyStateDivergenceIsExplicit(t *testing.T) {
	c := mustCircuit(t, crossCoupled)
	_, err := SteadyState(c, FixpointOptions{Damping: -1, MaxIter: 25})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("undamped cross-coupled pair should diverge, got %v", err)
	}
	if !strings.Contains(err.Error(), "25 iterations") {
		t.Errorf("divergence error should name the cap: %v", err)
	}

	// The same circuit under default damping converges to 0.5/0.5.
	res, err := SteadyState(c, FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.StateProbs {
		if math.Abs(p-0.5) > 1e-4 {
			t.Errorf("damped state %d = %g, want 0.5", i, p)
		}
	}
}

func TestSteadyStateCombinational(t *testing.T) {
	c := mustCircuit(t, ".model comb\n.inputs a b\n.outputs y\n.gate and2 a=a b=b O=y\n.end\n")
	res, err := SteadyState(c, FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 || len(res.StateProbs) != 0 {
		t.Errorf("combinational fixpoint: %d iterations, %d states", res.Iterations, len(res.StateProbs))
	}
}

func TestFixpointOptionValidation(t *testing.T) {
	c := mustCircuit(t, counter2)
	cases := map[string]FixpointOptions{
		"negative tol":      {Tol: -1},
		"damping 1":         {Damping: 1},
		"wrong prob count":  {InputProbs: []float64{0.5, 0.5}},
		"prob out of range": {InputProbs: []float64{1.5}},
	}
	for name, opts := range cases {
		if _, err := SteadyState(c, opts); err == nil {
			t.Errorf("%s: SteadyState should fail", name)
		}
	}
}

// TestPropagatorMatchesExhaustiveSim checks the analytic propagation
// against exhaustive simulation on a reconvergence-free circuit, where
// the independence assumption is exact.
func TestPropagatorMatchesExhaustiveSim(t *testing.T) {
	lib := cellib.Lib2()
	src := `
.model tree
.inputs a b c d
.outputs y
.gate nand2 a=a b=b O=t0
.gate or2 a=c b=d O=t1
.gate xor2 a=t0 b=t1 O=y
.end
`
	nl, err := blif.Read(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	pr := newPropagator(nl)
	pr.run([]float64{0.5, 0.5, 0.5, 0.5}, nil)

	s := sim.New(nl, 1)
	if err := s.SetInputsExhaustive(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	nl.LiveNodes(func(n *netlist.Node) {
		id := nl.FindNode(n.Name())
		want := s.Probability(id)
		if math.Abs(pr.prob(id)-want) > 1e-12 {
			t.Errorf("signal %s: analytic %g, exhaustive %g", n.Name(), pr.prob(id), want)
		}
	})
}
