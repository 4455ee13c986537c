package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/sat"
	"powder/internal/synth"
)

// referenceEquivalent is the equivalence check EquivalentCtx replaced: both
// netlists encoded in full, matched inputs tied by equality clauses, and
// one solve over the OR of all output XORs. Its DifferingOutput is any
// output that differs under the model.
func referenceEquivalent(ctx context.Context, x, y *netlist.Netlist, budget int64) (*EquivResult, error) {
	// Port matching.
	yIn := make(map[string]netlist.NodeID)
	for _, id := range y.Inputs() {
		if !y.Node(id).Dead() {
			yIn[y.Node(id).Name()] = id
		}
	}
	var pairsIn [][2]netlist.NodeID
	for _, id := range x.Inputs() {
		if x.Node(id).Dead() {
			continue
		}
		name := x.Node(id).Name()
		yid, ok := yIn[name]
		if !ok {
			// An input missing on one side is fine only if the other side
			// ignores it; treat it as a free variable there.
			continue
		}
		pairsIn = append(pairsIn, [2]netlist.NodeID{id, yid})
		delete(yIn, name)
	}

	yOut := make(map[string]netlist.NodeID)
	for _, po := range y.Outputs() {
		yOut[po.Name] = po.Driver
	}
	type outPair struct {
		name string
		x, y netlist.NodeID
	}
	var pairsOut []outPair
	for _, po := range x.Outputs() {
		yd, ok := yOut[po.Name]
		if !ok {
			return nil, fmt.Errorf("atpg: output %q missing in %s", po.Name, y.Name)
		}
		pairsOut = append(pairsOut, outPair{name: po.Name, x: po.Driver, y: yd})
	}
	if len(pairsOut) != len(y.Outputs()) {
		return nil, fmt.Errorf("atpg: output sets differ (%d vs %d)", len(pairsOut), len(y.Outputs()))
	}

	s := sat.New()
	if budget <= 0 {
		budget = 500000
	}
	s.SetBudget(budget)
	s.SetContext(ctx)
	bx := newCNFBuilder(x, s)
	by := newCNFBuilder(y, s)

	// Tie the matched inputs together.
	for _, p := range pairsIn {
		vx, vy := bx.nodeVar(p[0]), by.nodeVar(p[1])
		s.AddClause(sat.Neg(vx), sat.Pos(vy))
		s.AddClause(sat.Pos(vx), sat.Neg(vy))
	}

	// Miter the outputs.
	var diffs []sat.Lit
	diffVarToName := make(map[int]string)
	for _, p := range pairsOut {
		d := xorVar(s, &bx.lits, bx.nodeVar(p.x), by.nodeVar(p.y))
		diffVarToName[d] = p.name
		diffs = append(diffs, sat.Pos(d))
	}
	if !s.AddClause(diffs...) {
		return &EquivResult{Verdict: Permissible}, nil
	}

	switch s.Solve() {
	case sat.Unsat:
		return &EquivResult{Verdict: Permissible}, nil
	case sat.Sat:
		res := &EquivResult{Verdict: NotPermissible, Counterexample: make(map[string]bool)}
		for _, id := range x.Inputs() {
			if x.Node(id).Dead() {
				continue
			}
			if v := bx.varOf[id]; v >= 0 {
				res.Counterexample[x.Node(id).Name()] = s.Value(v)
			}
		}
		for d, name := range diffVarToName {
			if s.Value(d) {
				res.DifferingOutput = name
				break
			}
		}
		return res, nil
	default:
		return &EquivResult{Verdict: Aborted}, nil
	}
}

func TestEquivalentIdentical(t *testing.T) {
	nl, _ := fig2(t)
	res, err := Equivalent(nl, nl.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Permissible {
		t.Errorf("identical circuits must be equivalent, got %v", res.Verdict)
	}
}

func TestEquivalentAfterPermissibleRewire(t *testing.T) {
	nl, ids := fig2(t)
	cp := nl.Clone()
	// The paper's Figure 2 move preserves the functions.
	if err := cp.ReplaceFanin(ids["d"], 0, ids["e"]); err != nil {
		t.Fatal(err)
	}
	res, err := Equivalent(nl, cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Permissible {
		t.Errorf("figure-2 rewire must verify equivalent, got %v", res.Verdict)
	}
}

func TestEquivalentDetectsChange(t *testing.T) {
	nl, ids := fig2(t)
	cp := nl.Clone()
	// Break it: f's pin 1 reads c instead of b.
	if err := cp.ReplaceFanin(ids["f"], 1, ids["c"]); err != nil {
		t.Fatal(err)
	}
	res, err := Equivalent(nl, cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != NotPermissible {
		t.Fatalf("broken circuit must be caught, got %v", res.Verdict)
	}
	if res.DifferingOutput != "f" {
		t.Errorf("differing output = %q, want f", res.DifferingOutput)
	}
	if len(res.Counterexample) == 0 {
		t.Errorf("counterexample missing")
	}
	// The counterexample must actually distinguish: evaluate both circuits.
	if !cexDistinguishes(t, nl, cp, res.Counterexample) {
		t.Errorf("counterexample does not distinguish the circuits")
	}
}

// evalOutputs evaluates nl's outputs by name under an input assignment by
// name; inputs it does not name are 0.
func evalOutputs(nl *netlist.Netlist, in map[string]bool) map[string]bool {
	val := make(map[netlist.NodeID]bool)
	for _, id := range nl.TopoOrder() {
		n := nl.Node(id)
		if n.Kind() == netlist.KindInput {
			val[id] = in[n.Name()]
			continue
		}
		var m uint
		for pin, f := range n.Fanins() {
			if val[f] {
				m |= 1 << uint(pin)
			}
		}
		val[id] = n.Cell().TT.Eval(m)
	}
	out := make(map[string]bool)
	for _, po := range nl.Outputs() {
		out[po.Name] = val[po.Driver]
	}
	return out
}

func cexDistinguishes(t *testing.T, x, y *netlist.Netlist, cex map[string]bool) bool {
	t.Helper()
	ox, oy := evalOutputs(x, cex), evalOutputs(y, cex)
	for name, v := range ox {
		if oy[name] != v {
			return true
		}
	}
	return false
}

func TestEquivalentPortMismatch(t *testing.T) {
	nl, _ := fig2(t)
	lib := cellib.Lib2()
	other := netlist.New("other", lib)
	a, _ := other.AddInput("a")
	g, _ := other.AddGate("g", lib.Cell("inv"), []netlist.NodeID{a})
	if err := other.AddOutput("weird", g); err != nil {
		t.Fatal(err)
	}
	if _, err := Equivalent(nl, other, 0); err == nil {
		t.Errorf("mismatched output ports must error")
	}
}

func TestEquivalentRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	agree := 0
	for trial := 0; trial < 25; trial++ {
		nl := randomNetlist(t, rng, 5, 12)
		cp := nl.Clone()
		// Random rewire (may or may not change the function).
		var gates []netlist.NodeID
		cp.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate {
				gates = append(gates, n.ID())
			}
		})
		g := gates[rng.Intn(len(gates))]
		pin := rng.Intn(len(cp.Node(g).Fanins()))
		nd := netlist.NodeID(rng.Intn(cp.NumNodes()))
		if cp.Node(nd).Dead() || cp.TFO(g)[nd] || nd == g {
			continue
		}
		if err := cp.ReplaceFanin(g, pin, nd); err != nil {
			continue
		}
		res, err := Equivalent(nl, cp, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := Permissible
		if !exhaustiveEqual(t, nl, cp) {
			want = NotPermissible
		}
		if res.Verdict != want {
			t.Fatalf("trial %d: equiv=%v brute=%v", trial, res.Verdict, want)
		}
		agree++
	}
	if agree < 12 {
		t.Fatalf("too few equivalence cross-checks: %d", agree)
	}
}

// TestEquivalentDifferingOutputIsDeterministic pins that when several
// outputs differ under the same inputs, the first in x's output order is
// named, every time.
func TestEquivalentDifferingOutputIsDeterministic(t *testing.T) {
	lib := cellib.Lib2()
	build := func(name, c1, c2 string) *netlist.Netlist {
		nl := netlist.New(name, lib)
		a, _ := nl.AddInput("a")
		b, _ := nl.AddInput("b")
		g1, err := nl.AddGate("g1", lib.Cell(c1), []netlist.NodeID{a, b})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := nl.AddGate("g2", lib.Cell(c2), []netlist.NodeID{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.AddOutput("o1", g1); err != nil {
			t.Fatal(err)
		}
		if err := nl.AddOutput("o2", g2); err != nil {
			t.Fatal(err)
		}
		return nl
	}
	x, y := build("x", "and2", "or2"), build("y", "nand2", "nor2")
	for i := 0; i < 200; i++ {
		res, err := Equivalent(x, y, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != NotPermissible || res.DifferingOutput != "o1" {
			t.Fatalf("call %d: %v on output %q, want not-permissible on o1", i, res.Verdict, res.DifferingOutput)
		}
		if !cexDistinguishes(t, x, y, res.Counterexample) {
			t.Fatalf("call %d: counterexample %v does not distinguish", i, res.Counterexample)
		}
	}
}

// compileTable1 maps a Table-1 circuit onto lib2 the way the experiments
// do.
func compileTable1(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	spec, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestEquivalentSharesStructure pins that structurally equal circuits are
// decided by the hash table alone: a Table-1 circuit against its clone,
// and against a copy whose gates use the x2 drive variants, run no solve.
func TestEquivalentSharesStructure(t *testing.T) {
	for _, name := range []string{"C1908", "spla"} {
		nl := compileTable1(t, name)
		lib := nl.Lib
		resized := nl.Clone()
		swapped := 0
		resized.LiveNodes(func(n *netlist.Node) {
			if n.Kind() != netlist.KindGate {
				return
			}
			if v := lib.Cell(n.Cell().Name + "x2"); v != nil {
				if err := resized.ReplaceCell(n.ID(), v); err != nil {
					t.Fatal(err)
				}
				swapped++
			}
		})
		if swapped == 0 {
			t.Fatalf("%s: no gate has an x2 variant", name)
		}
		for label, y := range map[string]*netlist.Netlist{"clone": nl.Clone(), "x2 variants": resized} {
			tr := trace.New(name, trace.Options{})
			res, err := EquivalentCtx(trace.NewContext(context.Background(), tr), nl, y, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Permissible {
				t.Errorf("%s against its %s: %v", name, label, res.Verdict)
			}
			if spans := tr.Snapshot(); len(spans) != 0 {
				t.Errorf("%s against its %s: %d sat-solve spans, want none", name, label, len(spans))
			}
		}
	}
}

// parityPair returns two circuits over inputs a0..a(n-1) whose outputs
// p2..p(n-1) are the parities of the first k inputs: x computes them along
// one XOR chain, y each by its own balanced XOR tree. No gate of y hashes
// onto x's past the first level, so every output needs a search.
func parityPair(t *testing.T, n int) (x, y *netlist.Netlist) {
	t.Helper()
	lib := cellib.Lib2()
	x, y = netlist.New("chain", lib), netlist.New("trees", lib)
	var xin, yin []netlist.NodeID
	for i := 0; i < n; i++ {
		a, _ := x.AddInput(fmt.Sprintf("a%d", i))
		b, _ := y.AddInput(fmt.Sprintf("a%d", i))
		xin, yin = append(xin, a), append(yin, b)
	}
	xor := func(nl *netlist.Netlist, a, b netlist.NodeID) netlist.NodeID {
		g, err := nl.AddGate("", lib.Cell("xor2"), []netlist.NodeID{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var tree func(ins []netlist.NodeID) netlist.NodeID
	tree = func(ins []netlist.NodeID) netlist.NodeID {
		if len(ins) == 1 {
			return ins[0]
		}
		h := len(ins) / 2
		return xor(y, tree(ins[:h]), tree(ins[h:]))
	}
	acc := xin[0]
	for k := 1; k < n; k++ {
		acc = xor(x, acc, xin[k])
		name := fmt.Sprintf("p%d", k+1)
		if err := x.AddOutput(name, acc); err != nil {
			t.Fatal(err)
		}
		if err := y.AddOutput(name, tree(yin[:k+1])); err != nil {
			t.Fatal(err)
		}
	}
	return x, y
}

// TestEquivalentBudgetBoundsWholeCheck pins that the budget bounds the
// conflicts of all of a check's solves together, not of each one.
func TestEquivalentBudgetBoundsWholeCheck(t *testing.T) {
	x, y := parityPair(t, 9)
	tr := trace.New("parity", trace.Options{})
	res, err := EquivalentCtx(trace.NewContext(context.Background(), tr), x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Permissible {
		t.Fatalf("parity chain against trees: %v", res.Verdict)
	}
	var total, most int64
	searched := 0
	for _, sp := range tr.Snapshot() {
		c := sp.Attrs["conflicts"].(int64)
		total += c
		most = max(most, c)
		if c > 0 {
			searched++
		}
	}
	if searched < 2 || total <= most {
		t.Fatalf("%d solves with conflicts (%d in all, at most %d in one); the case tests nothing", searched, total, most)
	}
	// Every single solve fits in the largest one's conflicts, the whole
	// check does not.
	if res, err := Equivalent(x, y, most); err != nil || res.Verdict != Aborted {
		t.Errorf("budget %d of %d conflicts: %v, %v; want aborted", most, total, res.Verdict, err)
	}
	if res, err := Equivalent(x, y, total+1); err != nil || res.Verdict != Permissible {
		t.Errorf("budget %d of %d conflicts: %v, %v; want permissible", total+1, total, res.Verdict, err)
	}
}

// TestEquivalentAbortHidesLaterDifference pins what deciding outputs one
// at a time under one budget costs: equal outputs that use up the budget
// end the check Aborted, though a later output differs, while the
// one-shot reference on the same budget finds the difference.
func TestEquivalentAbortHidesLaterDifference(t *testing.T) {
	x, y := parityPair(t, 9)
	for nl, cell := range map[*netlist.Netlist]string{x: "and2", y: "or2"} {
		in := nl.Inputs()
		g, err := nl.AddGate("z", nl.Lib.Cell(cell), []netlist.NodeID{in[0], in[1]})
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.AddOutput("z", g); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.New("parity", trace.Options{})
	res, err := EquivalentCtx(trace.NewContext(context.Background(), tr), x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != NotPermissible || res.DifferingOutput != "z" {
		t.Fatalf("unbounded: %v on output %q, want not-permissible on z", res.Verdict, res.DifferingOutput)
	}
	var parity int64
	for _, sp := range tr.Snapshot() {
		if sp.Attrs["result"] == "UNSAT" {
			parity += sp.Attrs["conflicts"].(int64)
		}
	}
	if parity < 2 {
		t.Fatalf("the equal outputs took %d conflicts; the case tests nothing", parity)
	}
	// The parity outputs come first in x's order; a budget one short of
	// their conflicts ends the check before z.
	budget := parity - 1
	if res, err := Equivalent(x, y, budget); err != nil || res.Verdict != Aborted {
		t.Errorf("budget %d of %d conflicts: %v, %v; want aborted", budget, parity, res.Verdict, err)
	}
	if res, err := referenceEquivalent(context.Background(), x, y, budget); err != nil || res.Verdict != NotPermissible || res.DifferingOutput != "z" {
		t.Errorf("reference on budget %d: %v on output %q, %v; want not-permissible on z", budget, res.Verdict, res.DifferingOutput, err)
	}
}

// circuitSpec describes a random circuit: inputs i0..i(inputs-1) are nodes
// 0..inputs-1, gate g is node inputs+g and reads earlier nodes, and output
// o<k> is driven by node outputs[k].
type circuitSpec struct {
	inputs  int
	cells   []string
	fanins  [][]int
	outputs []int
}

// fuzzCells are the cells random circuits draw from; driveVariant maps a
// cell to its x2 variant, the same function.
var (
	fuzzCells    = []string{"inv", "buf", "nand2", "nor2", "and2", "or2", "xor2", "xnor2", "aoi21", "oai21", "mux2", "nand3"}
	driveVariant = map[string]string{"inv": "invx2", "buf": "bufx2", "nand2": "nand2x2", "nor2": "nor2x2",
		"and2": "and2x2", "or2": "or2x2", "xor2": "xor2x2"}
)

func randomSpec(rng *rand.Rand, lib *cellib.Library) circuitSpec {
	sp := circuitSpec{inputs: 1 + rng.Intn(8)}
	gates := 1 + rng.Intn(14)
	for g := 0; g < gates; g++ {
		cell := fuzzCells[rng.Intn(len(fuzzCells))]
		f := make([]int, lib.Cell(cell).NumPins())
		for p := range f {
			f[p] = rng.Intn(sp.inputs + g)
		}
		sp.cells = append(sp.cells, cell)
		sp.fanins = append(sp.fanins, f)
	}
	nodes := sp.inputs + gates
	for o := 1 + rng.Intn(4); o > 0; o-- {
		sp.outputs = append(sp.outputs, nodes-1-rng.Intn(min(nodes, 5)))
	}
	return sp
}

// mutate returns a copy of sp with up to two rewired pins, maybe one
// redirected output, and some cells swapped for their drive variants.
func (sp circuitSpec) mutate(rng *rand.Rand) circuitSpec {
	m := circuitSpec{inputs: sp.inputs, cells: append([]string(nil), sp.cells...), outputs: append([]int(nil), sp.outputs...)}
	for _, f := range sp.fanins {
		m.fanins = append(m.fanins, append([]int(nil), f...))
	}
	for r := rng.Intn(3); r > 0; r-- {
		g := rng.Intn(len(m.cells))
		m.fanins[g][rng.Intn(len(m.fanins[g]))] = rng.Intn(m.inputs + g)
	}
	if rng.Intn(4) == 0 {
		m.outputs[rng.Intn(len(m.outputs))] = rng.Intn(m.inputs + len(m.cells))
	}
	for g, c := range m.cells {
		if v, ok := driveVariant[c]; ok && rng.Intn(3) == 0 {
			m.cells[g] = v
		}
	}
	return m
}

// build makes a netlist of sp. Gates are named prefix<k>, k their place
// in a random topological order, which is also the order they are added
// in; inputs and outputs are added in random orders. Each input no gate
// or output reads is left out with probability 1/2.
func (sp circuitSpec) build(t *testing.T, rng *rand.Rand, lib *cellib.Library, name, prefix string) *netlist.Netlist {
	t.Helper()
	nl := netlist.New(name, lib)
	used := make([]bool, sp.inputs)
	for _, f := range sp.fanins {
		for _, k := range f {
			if k < sp.inputs {
				used[k] = true
			}
		}
	}
	for _, k := range sp.outputs {
		if k < sp.inputs {
			used[k] = true
		}
	}
	id := make([]netlist.NodeID, sp.inputs+len(sp.cells))
	for _, i := range rng.Perm(sp.inputs) {
		if !used[i] && rng.Intn(2) == 0 {
			continue
		}
		var err error
		if id[i], err = nl.AddInput(fmt.Sprintf("i%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	placed := make([]bool, len(sp.cells))
	for k := range sp.cells {
		var ready []int
		for g, f := range sp.fanins {
			if placed[g] {
				continue
			}
			ok := true
			for _, n := range f {
				ok = ok && (n < sp.inputs || placed[n-sp.inputs])
			}
			if ok {
				ready = append(ready, g)
			}
		}
		g := ready[rng.Intn(len(ready))]
		fanins := make([]netlist.NodeID, len(sp.fanins[g]))
		for p, n := range sp.fanins[g] {
			fanins[p] = id[n]
		}
		var err error
		if id[sp.inputs+g], err = nl.AddGate(fmt.Sprintf("%s%d", prefix, k), lib.Cell(sp.cells[g]), fanins); err != nil {
			t.Fatal(err)
		}
		placed[g] = true
	}
	for _, o := range rng.Perm(len(sp.outputs)) {
		if err := nl.AddOutput(fmt.Sprintf("o%d", o), id[sp.outputs[o]]); err != nil {
			t.Fatal(err)
		}
	}
	return nl
}

// inputNames returns the input names of nl.
func inputNames(nl *netlist.Netlist) []string {
	var names []string
	for _, id := range nl.Inputs() {
		names = append(names, nl.Node(id).Name())
	}
	return names
}

// exhaustiveFirstDiff simulates x and y on every assignment of the union
// of their input names and returns the first output in x's order that
// differs on some assignment, or "".
func exhaustiveFirstDiff(x, y *netlist.Netlist) string {
	names := inputNames(x)
	seen := make(map[string]bool)
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range inputNames(y) {
		if !seen[n] {
			names = append(names, n)
		}
	}
	differs := make(map[string]bool)
	for m := 0; m < 1<<len(names); m++ {
		in := make(map[string]bool, len(names))
		for i, n := range names {
			in[n] = m>>i&1 == 1
		}
		ox, oy := evalOutputs(x, in), evalOutputs(y, in)
		for o, v := range ox {
			if oy[o] != v {
				differs[o] = true
			}
		}
	}
	for _, po := range x.Outputs() {
		if differs[po.Name] {
			return po.Name
		}
	}
	return ""
}

// checkEquivalent builds a random circuit of seed and a renamed,
// reordered, possibly rewired copy, each maybe without some unused
// inputs, and checks Equivalent against exhaustive simulation and the
// plain-miter reference.
func checkEquivalent(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	lib := cellib.Lib2()
	sp := randomSpec(rng, lib)
	x := sp.build(t, rng, lib, "x", "g")
	y := sp.mutate(rng).build(t, rng, lib, "y", "h")

	firstDiff := exhaustiveFirstDiff(x, y)
	want := Permissible
	if firstDiff != "" {
		want = NotPermissible
	}
	ref, err := referenceEquivalent(context.Background(), x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Verdict != want {
		t.Fatalf("reference miter: %v, exhaustive simulation: %v", ref.Verdict, want)
	}
	res, err := Equivalent(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != want {
		t.Fatalf("Equivalent: %v, exhaustive simulation: %v", res.Verdict, want)
	}
	if want != NotPermissible {
		return
	}
	if res.DifferingOutput != firstDiff {
		t.Errorf("differing output %q, the first in x's order that differs is %q", res.DifferingOutput, firstDiff)
	}
	xNames := inputNames(x)
	if len(res.Counterexample) != len(xNames) {
		t.Errorf("counterexample %v does not cover the inputs %v", res.Counterexample, xNames)
	}
	// The counterexample names x's inputs only: some values of y's own
	// inputs must complete it to an assignment on which the output
	// differs.
	var yOnly []string
	for _, n := range inputNames(y) {
		if _, ok := res.Counterexample[n]; !ok {
			yOnly = append(yOnly, n)
		}
	}
	for m := 0; m < 1<<len(yOnly); m++ {
		in := make(map[string]bool)
		for n, v := range res.Counterexample {
			in[n] = v
		}
		for i, n := range yOnly {
			in[n] = m>>i&1 == 1
		}
		if evalOutputs(x, in)[firstDiff] != evalOutputs(y, in)[firstDiff] {
			return
		}
	}
	t.Errorf("counterexample %v does not distinguish output %q", res.Counterexample, firstDiff)
}

// FuzzEquivalent checks the verdict of Equivalent on random circuit pairs
// (random rewires and drive variants, internal renames, gate, input and
// output order permutations, dropped unused inputs) against exhaustive
// simulation and the plain-miter reference, and that a refutation names
// the first differing output with a distinguishing counterexample.
func FuzzEquivalent(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkEquivalent)
}
