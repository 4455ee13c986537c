package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTTVarPatterns(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for i := 0; i < n; i++ {
			tt := TTVar(i, n)
			for m := uint(0); m < 1<<uint(n); m++ {
				want := m>>uint(i)&1 == 1
				if tt.Eval(m) != want {
					t.Fatalf("TTVar(%d,%d).Eval(%d) = %v, want %v", i, n, m, tt.Eval(m), want)
				}
			}
		}
	}
}

func TestTTConst(t *testing.T) {
	for n := 0; n <= 6; n++ {
		c1 := TTConst(true, n)
		c0 := TTConst(false, n)
		if ok, v := c1.IsConst(); !ok || !v {
			t.Errorf("TTConst(true,%d) not recognized const: %v", n, c1)
		}
		if ok, v := c0.IsConst(); !ok || v {
			t.Errorf("TTConst(false,%d) not recognized const: %v", n, c0)
		}
		if c1.OnSetSize() != 1<<uint(n) {
			t.Errorf("true OnSetSize over %d vars = %d", n, c1.OnSetSize())
		}
		if c0.OnSetSize() != 0 {
			t.Errorf("false OnSetSize over %d vars = %d", n, c0.OnSetSize())
		}
	}
}

func TestTTFromExprMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		e := randomExpr(rng, n, 4)
		tt := TTFromExpr(e, n)
		for m := uint(0); m < 1<<uint(n); m++ {
			in := make([]bool, n)
			for i := 0; i < n; i++ {
				in[i] = m>>uint(i)&1 == 1
			}
			if tt.Eval(m) != e.Eval(in) {
				t.Fatalf("trial %d: tt and Eval disagree on minterm %d for %v", trial, m, e)
			}
		}
	}
}

// TestEval2WordsMatchesEval: every bit lane of Eval2Words is Eval of the
// lane's minterm, for all 16 two-variable tables.
func TestEval2WordsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := []uint64{rng.Uint64(), rng.Uint64()}
	c := []uint64{rng.Uint64(), rng.Uint64()}
	out := make([]uint64, len(b))
	for bits := uint64(0); bits < 16; bits++ {
		tt := TT{N: 2, Bits: bits}
		tt.Eval2Words(b, c, out)
		for w := range out {
			for lane := 0; lane < 64; lane++ {
				m := uint(b[w]>>lane&1 | c[w]>>lane&1<<1)
				if got := out[w]>>lane&1 == 1; got != tt.Eval(m) {
					t.Fatalf("table %v word %d lane %d: %v, Eval(%d) %v", tt, w, lane, got, m, tt.Eval(m))
				}
			}
		}
	}
}

func randomExpr(rng *rand.Rand, n, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return Var(rng.Intn(n))
	}
	switch rng.Intn(4) {
	case 0:
		return Not(randomExpr(rng, n, depth-1))
	case 1:
		return And(randomExpr(rng, n, depth-1), randomExpr(rng, n, depth-1))
	case 2:
		return Or(randomExpr(rng, n, depth-1), randomExpr(rng, n, depth-1))
	default:
		return Xor(randomExpr(rng, n, depth-1), randomExpr(rng, n, depth-1))
	}
}

func TestTTOps(t *testing.T) {
	a := TTVar(0, 2)
	b := TTVar(1, 2)
	if got := a.And(b); got.Bits != 0b1000 {
		t.Errorf("a*b = %v", got)
	}
	if got := a.Or(b); got.Bits != 0b1110 {
		t.Errorf("a+b = %v", got)
	}
	if got := a.Xor(b); got.Bits != 0b0110 {
		t.Errorf("a^b = %v", got)
	}
	if got := a.Not(); got.Bits != 0b0101 {
		t.Errorf("!a = %v", got)
	}
}

func TestTTCofactorShannon(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		f := TT{N: n, Bits: rng.Uint64() & ttMask(n)}
		for i := 0; i < n; i++ {
			c0 := f.Cofactor(i, false)
			c1 := f.Cofactor(i, true)
			// Shannon expansion: f = x*f_x + !x*f_!x
			x := TTVar(i, n)
			recon := x.And(c1).Or(x.Not().And(c0))
			if !recon.Equal(f) {
				t.Fatalf("Shannon expansion failed: f=%v i=%d c0=%v c1=%v", f, i, c0, c1)
			}
			// Cofactors must not depend on variable i.
			if c0.DependsOn(i) || c1.DependsOn(i) {
				t.Fatalf("cofactor depends on the cofactored variable")
			}
		}
	}
}

func TestTTDependsOn(t *testing.T) {
	// f = a * b over 3 vars does not depend on c.
	f := TTVar(0, 3).And(TTVar(1, 3))
	if !f.DependsOn(0) || !f.DependsOn(1) {
		t.Errorf("a*b should depend on a and b")
	}
	if f.DependsOn(2) {
		t.Errorf("a*b should not depend on c")
	}
	if f.DependsOn(-1) || f.DependsOn(3) {
		t.Errorf("out-of-range DependsOn should be false")
	}
}

func TestNPNClassInvariance(t *testing.T) {
	// NAND2 under both input orders must have the same class key.
	nand1 := TTFromExpr(Not(And(Var(0), Var(1))), 2)
	nand2 := TTFromExpr(Not(And(Var(1), Var(0))), 2)
	if nand1.NPNClass() != nand2.NPNClass() {
		t.Errorf("permutation class differs for commuted NAND inputs")
	}
	// a*!b and !a*b are permutation-equivalent only via swap + neg, so the
	// permutation-only class must differ from a*b.
	and := TTFromExpr(And(Var(0), Var(1)), 2)
	andnot := TTFromExpr(And(Var(0), Not(Var(1))), 2)
	if and.NPNClass() == andnot.NPNClass() {
		t.Errorf("a*b and a*!b must be in different permutation classes")
	}
}

// Property: OnSetSize of complement is the complement of OnSetSize.
func TestOnSetComplementProperty(t *testing.T) {
	f := func(bits uint64) bool {
		tt := TT{N: 6, Bits: bits}
		return tt.OnSetSize()+tt.Not().OnSetSize() == 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
