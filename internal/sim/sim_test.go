package sim

import (
	"math"
	"testing"

	"powder/internal/cellib"
	"powder/internal/netlist"
)

// fig2 builds the paper's Figure 2 circuit A: e=a*b, d=a^c, f=d*b, outputs
// f and e.
func fig2(t *testing.T) (*netlist.Netlist, map[string]netlist.NodeID) {
	t.Helper()
	lib := cellib.Lib2()
	nl := netlist.New("fig2", lib)
	ids := make(map[string]netlist.NodeID)
	for _, in := range []string{"a", "b", "c"} {
		id, err := nl.AddInput(in)
		if err != nil {
			t.Fatal(err)
		}
		ids[in] = id
	}
	mk := func(name, cell string, fanins ...netlist.NodeID) netlist.NodeID {
		id, err := nl.AddGate(name, lib.Cell(cell), fanins)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
		return id
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

func TestExhaustiveExactProbabilities(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 1)
	if err := s.SetInputsExhaustive(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// With 3 uniform inputs: p(e)=p(a*b)=1/4, p(d)=p(a^c)=1/2, p(f)=p((a^c)b)=1/4.
	cases := map[string]float64{"a": 0.5, "b": 0.5, "c": 0.5, "e": 0.25, "d": 0.5, "f": 0.25}
	for name, want := range cases {
		got := s.Probability(ids[name])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("p(%s) = %v, want %v", name, got, want)
		}
	}
	if s.NumVectors() != 8 {
		t.Errorf("NumVectors = %d, want 8", s.NumVectors())
	}
}

func TestExhaustiveTooManyInputs(t *testing.T) {
	lib := cellib.Lib2()
	nl := netlist.New("big", lib)
	var last netlist.NodeID
	for i := 0; i < 10; i++ {
		id, err := nl.AddInput(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	g, _ := nl.AddGate("out", lib.Cell("inv"), []netlist.NodeID{last})
	if err := nl.AddOutput("out", g); err != nil {
		t.Fatal(err)
	}
	s := New(nl, 2) // 128 vectors < 1024 needed
	if err := s.SetInputsExhaustive(); err == nil {
		t.Errorf("exhaustive with too few words should fail")
	}
}

func TestRandomProbabilitiesConverge(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 64) // 4096 vectors
	s.SetInputsRandom(1, nil)
	s.Run()
	if got := s.Probability(ids["e"]); math.Abs(got-0.25) > 0.03 {
		t.Errorf("p(e) = %v, want about 0.25", got)
	}
	if got := s.Probability(ids["d"]); math.Abs(got-0.5) > 0.03 {
		t.Errorf("p(d) = %v, want about 0.5", got)
	}
}

func TestBiasedInputs(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 64)
	s.SetInputsRandom(7, []float64{0.9, 0.9, 0.1})
	s.Run()
	if got := s.Probability(ids["a"]); math.Abs(got-0.9) > 0.03 {
		t.Errorf("p(a) = %v, want about 0.9", got)
	}
	// p(e) = p(a)p(b) = 0.81
	if got := s.Probability(ids["e"]); math.Abs(got-0.81) > 0.04 {
		t.Errorf("p(e) = %v, want about 0.81", got)
	}
}

func TestDeterministicSeed(t *testing.T) {
	nl, ids := fig2(t)
	s1 := New(nl, 8)
	s1.SetInputsRandom(42, nil)
	s1.Run()
	s2 := New(nl, 8)
	s2.SetInputsRandom(42, nil)
	s2.Run()
	v1, v2 := s1.Value(ids["f"]), s2.Value(ids["f"])
	for w := range v1 {
		if v1[w] != v2[w] {
			t.Fatalf("same seed produced different values")
		}
	}
}

func TestHypotheticalDoesNotMutate(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 4)
	s.SetInputsRandom(5, nil)
	s.Run()
	before := append([]uint64(nil), s.Value(ids["f"])...)

	alt := make([]uint64, s.Words())
	for w := range alt {
		alt[w] = ^s.Value(ids["d"])[w]
	}
	ov := s.Hypothetical(ids["d"], alt)
	if !ov.AnyPODiff() {
		t.Errorf("flipping d must disturb output f somewhere")
	}
	if !ov.Changed(ids["f"]) {
		t.Errorf("f should be marked changed")
	}
	if ov.Changed(ids["e"]) {
		t.Errorf("e is not downstream of d")
	}
	after := s.Value(ids["f"])
	for w := range before {
		if before[w] != after[w] {
			t.Fatalf("Hypothetical mutated base values")
		}
	}
}

func TestOverlayStalenessPanics(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 2)
	s.SetInputsRandom(5, nil)
	s.Run()
	alt := make([]uint64, s.Words())
	ov := s.Hypothetical(ids["d"], alt)
	_ = s.Hypothetical(ids["e"], alt)
	defer func() {
		if recover() == nil {
			t.Errorf("stale overlay access should panic")
		}
	}()
	ov.Value(ids["f"])
}

func TestStemObservability(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 1)
	if err := s.SetInputsExhaustive(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Stem d feeds f = d*b: flipping d is observable exactly when b=1.
	obs := s.StemObservability(ids["d"])
	b := s.Value(ids["b"])
	for w := range obs {
		if obs[w]&s.ValidMask(w) != b[w]&s.ValidMask(w) {
			t.Errorf("obs(d) = %x, want %x (b)", obs[w], b[w])
		}
	}
	// Stem e drives output e directly: always observable.
	obsE := s.StemObservability(ids["e"])
	for w := range obsE {
		if obsE[w] != s.ValidMask(w) {
			t.Errorf("obs(e) should be full: %x", obsE[w])
		}
	}
}

func TestBranchObservability(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 1)
	if err := s.SetInputsExhaustive(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Branch a->d (pin 0 of d): observable when b=1 (since f=d*b and the
	// XOR always propagates the pin flip to d).
	obs := s.BranchObservability(ids["d"], 0)
	b := s.Value(ids["b"])
	for w := range obs {
		if obs[w]&s.ValidMask(w) != b[w]&s.ValidMask(w) {
			t.Errorf("branch obs = %x, want %x", obs[w], b[w])
		}
	}
	// Branch b->f (pin 1 of f): flipping b at that pin changes f iff d=1.
	obs2 := s.BranchObservability(ids["f"], 1)
	d := s.Value(ids["d"])
	for w := range obs2 {
		if obs2[w]&s.ValidMask(w) != d[w]&s.ValidMask(w) {
			t.Errorf("branch obs b->f = %x, want %x", obs2[w], d[w])
		}
	}
}

func TestResyncAfterStructuralChange(t *testing.T) {
	nl, ids := fig2(t)
	s := New(nl, 2)
	s.SetInputsRandom(9, nil)
	s.Run()
	lib := nl.Lib
	// Add a new gate and an output on it.
	g, err := nl.AddGate("g", lib.Cell("nor2"), []netlist.NodeID{ids["e"], ids["f"]})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.AddOutput("g", g); err != nil {
		t.Fatal(err)
	}
	s.Run()
	e, f, gv := s.Value(ids["e"]), s.Value(ids["f"]), s.Value(g)
	for w := range gv {
		if gv[w] != ^(e[w] | f[w]) {
			t.Fatalf("resync value wrong for new gate")
		}
	}
}

func TestValidMask(t *testing.T) {
	nl, _ := fig2(t)
	s := New(nl, 2)
	if err := s.SetInputsExhaustive(); err != nil { // 8 vectors in 128 bits
		t.Fatal(err)
	}
	if s.ValidMask(0) != 0xFF {
		t.Errorf("ValidMask(0) = %x, want ff", s.ValidMask(0))
	}
	if s.ValidMask(1) != 0 {
		t.Errorf("ValidMask(1) = %x, want 0", s.ValidMask(1))
	}
}
