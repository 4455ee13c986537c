package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLitBasics(t *testing.T) {
	p, n := Pos(3), Neg(3)
	if p.Var() != 3 || n.Var() != 3 {
		t.Errorf("Var broken")
	}
	if p.Sign() || !n.Sign() {
		t.Errorf("Sign broken")
	}
	if p.Not() != n || n.Not() != p {
		t.Errorf("Not broken")
	}
	if p.String() != "v3" || n.String() != "!v3" {
		t.Errorf("String broken: %s %s", p, n)
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a)) {
		t.Fatal("unit clause rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(a) {
		t.Errorf("a should be true")
	}
	// Adding the complementary unit makes it unsat.
	if s.AddClause(Neg(a)) {
		t.Errorf("contradictory unit should report false")
	}
	if got := s.Solve(); got != Unsat {
		t.Errorf("Solve = %v, want Unsat", got)
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	s := New()
	v := make([]int, 10)
	for i := range v {
		v[i] = s.NewVar()
	}
	// v0 -> v1 -> ... -> v9, assert v0, forbid v9: unsat.
	for i := 0; i+1 < len(v); i++ {
		s.AddClause(Neg(v[i]), Pos(v[i+1]))
	}
	s.AddClause(Pos(v[0]))
	s.AddClause(Neg(v[9]))
	if got := s.Solve(); got != Unsat {
		t.Errorf("chain contradiction: %v, want Unsat", got)
	}
}

func TestXorChainSat(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// a xor b = c encoded in CNF.
	s.AddClause(Neg(a), Neg(b), Neg(c))
	s.AddClause(Pos(a), Pos(b), Neg(c))
	s.AddClause(Pos(a), Neg(b), Pos(c))
	s.AddClause(Neg(a), Pos(b), Pos(c))
	s.AddClause(Pos(c)) // force c = 1
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if s.Value(a) == s.Value(b) {
		t.Errorf("model violates a xor b = 1: a=%v b=%v", s.Value(a), s.Value(b))
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes, classic small
// UNSAT family that requires real conflict analysis.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = Pos(v[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(Neg(v[p1][h]), Neg(v[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 4)
	if got := s.Solve(); got != Sat {
		t.Errorf("PHP(4,4) = %v, want Sat", got)
	}
}

func TestBudgetUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.SetBudget(5)
	if got := s.Solve(); got != Unknown {
		t.Errorf("budgeted solve = %v, want Unknown", got)
	}
	// Removing the budget must give the real answer.
	s.SetBudget(0)
	if got := s.Solve(); got != Unsat {
		t.Errorf("unbudgeted solve = %v, want Unsat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a -> b
	if got := s.Solve(Pos(a), Neg(b)); got != Unsat {
		t.Errorf("assumptions a & !b with a->b: %v, want Unsat", got)
	}
	if got := s.Solve(Pos(a)); got != Sat {
		t.Fatalf("assumption a: %v, want Sat", got)
	}
	if !s.Value(b) {
		t.Errorf("b must be true when a is assumed")
	}
	// The solver must be reusable: contradictory assumptions do not poison
	// the clause database.
	if got := s.Solve(Neg(a)); got != Sat {
		t.Errorf("assumption !a: %v, want Sat", got)
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the solver on random small
// formulas against exhaustive enumeration.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nv := 4 + rng.Intn(6) // 4..9 vars
		nc := 3 + rng.Intn(30)
		type cl [3]int // positive: var+1, negative: -(var+1)
		clauses := make([]cl, nc)
		for i := range clauses {
			for k := 0; k < 3; k++ {
				v := rng.Intn(nv) + 1
				if rng.Intn(2) == 0 {
					v = -v
				}
				clauses[i][k] = v
			}
		}
		// Brute force.
		bruteSat := false
		for m := 0; m < 1<<uint(nv); m++ {
			ok := true
			for _, c := range clauses {
				cok := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := m>>uint(v-1)&1 == 1
					if (l > 0) == val {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		// Solver.
		s := New()
		vars := make([]int, nv)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		for _, c := range clauses {
			lits := make([]Lit, 3)
			for k, l := range c {
				if l > 0 {
					lits[k] = Pos(vars[l-1])
				} else {
					lits[k] = Neg(vars[-l-1])
				}
			}
			s.AddClause(lits...)
		}
		got := s.Solve()
		want := Unsat
		if bruteSat {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v (formula %v)", trial, got, want, clauses)
		}
		// On Sat, verify the model actually satisfies the formula.
		if got == Sat {
			for _, c := range clauses {
				cok := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == s.Value(vars[v-1]) {
						cok = true
						break
					}
				}
				if !cok {
					t.Fatalf("trial %d: model does not satisfy clause %v", trial, c)
				}
			}
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if !s.AddClause(Pos(a), Neg(a)) {
		t.Errorf("tautology should be accepted (and dropped)")
	}
	if !s.AddClause(Pos(a), Pos(a), Pos(b)) {
		t.Errorf("duplicate literals should be accepted")
	}
	if got := s.Solve(); got != Sat {
		t.Errorf("Solve = %v", got)
	}
}

// TestAddClauseNormalizes checks AddClause's normalization against a set
// kept per clause: the same verdict and the same literals in the same
// order, on random clauses up to 300 literals wide with repeated and
// complementary literals and level-0 assignments, and the scratch marks
// clear afterwards.
func TestAddClauseNormalizes(t *testing.T) {
	reference := func(s *Solver, lits []Lit) ([]Lit, bool) {
		var out []Lit
		seen := make(map[Lit]bool)
		for _, l := range lits {
			switch {
			case seen[l]:
				continue
			case seen[l.Not()]:
				return nil, true
			case s.value(l) == valTrue:
				return nil, true
			case s.value(l) == valFalse:
				continue
			}
			seen[l] = true
			out = append(out, l)
		}
		return out, false
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s := New()
		nv := 2 + rng.Intn(400)
		sign := make([]bool, nv)
		for i := range sign {
			s.NewVar()
			sign[i] = rng.Intn(2) == 0
		}
		for c := 0; c < 40 && s.ok; c++ {
			// Half the clauses take each variable in one polarity, so
			// that wide clauses with repeats survive as non-tautologies.
			mixed := rng.Intn(2) == 0
			lits := make([]Lit, 1+rng.Intn(300))
			for i := range lits {
				v := rng.Intn(nv)
				lits[i] = Pos(v)
				if mixed && rng.Intn(2) == 0 || !mixed && sign[v] {
					lits[i] = lits[i].Not()
				}
			}
			if rng.Intn(8) == 0 {
				lits = lits[:1] // a unit fixes a variable at level 0
			}
			want, satisfied := reference(s, lits)
			n := len(s.clauses)
			got := s.AddClause(lits...)
			for v, m := range s.seen {
				if m {
					t.Fatalf("trial %d: variable %d still marked after AddClause", trial, v)
				}
			}
			stored := s.clauses[n:]
			switch {
			case satisfied:
				if !got || len(stored) != 0 {
					t.Fatalf("trial %d: %v = %v with %d stored, want true, none stored", trial, lits, got, len(stored))
				}
			case len(want) == 1:
				if got != s.ok || len(stored) != 0 || s.value(want[0]) != valTrue {
					t.Fatalf("trial %d: %v = %v with %d stored, want %v assigned true", trial, lits, got, len(stored), want[0])
				}
			case len(want) == 0:
				if got {
					t.Fatalf("trial %d: %v accepted, want the solver unsatisfiable", trial, lits)
				}
			default:
				if !got || len(stored) != 1 || !slices.Equal(stored[0].lits, want) {
					t.Fatalf("trial %d: %v stored %v, want %v", trial, lits, stored, want)
				}
			}
		}
	}
}

func TestStatisticsProgress(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	s.Solve()
	if s.Conflicts == 0 || s.Decisions == 0 || s.Propagations == 0 {
		t.Errorf("statistics not collected: %d conflicts %d decisions %d props",
			s.Conflicts, s.Decisions, s.Propagations)
	}
}
