package logic

import (
	"math/rand"
	"testing"
)

// compileSeeds are every Lib2 cell function, both constants, a double
// negation and a 4-input XOR.
var compileSeeds = []string{
	"!a", "a", "!(a*b)", "!(a*b*c)", "!(a*b*c*d)", "!(a+b)", "!(a+b+c)",
	"!(a+b+c+d)", "a*b", "a*b*c", "a*b*c*d", "a+b", "a+b+c", "a+b+c+d",
	"a^b", "!(a^b)", "!(a*b+c)", "!((a+b)*c)", "!(a*b+c*d)",
	"!((a+b)*(c+d))", "a*!c+b*c",
	"CONST0", "CONST1", "!!a", "a^b^c^d",
}

var compileVars = []string{"a", "b", "c", "d", "e", "f"}

// checkCompiled compares the compiled program of src with EvalWords on
// random words drawn from seed.
func checkCompiled(t *testing.T, src string, seed int64) {
	t.Helper()
	e, err := ParseExpr(src, compileVars)
	if err != nil {
		return
	}
	const words = 3
	rng := rand.New(rand.NewSource(seed))
	in := make([][]uint64, len(compileVars))
	for i := range in {
		in[i] = make([]uint64, words)
		for w := range in[i] {
			in[i][w] = rng.Uint64()
		}
	}
	p := Compile(e, len(compileVars))
	regs := make([][]uint64, p.Regs())
	for i := range regs {
		regs[i] = make([]uint64, words)
	}
	out := make([]uint64, words)
	p.Run(in, out, regs)
	args := make([]uint64, len(compileVars))
	for w := range out {
		for i := range args {
			args[i] = in[i][w]
		}
		if want := e.EvalWords(args); out[w] != want {
			t.Fatalf("%q word %d: compiled %#x, EvalWords %#x", src, w, out[w], want)
		}
	}
}

func TestCompileMatchesEvalWords(t *testing.T) {
	for i, src := range compileSeeds {
		checkCompiled(t, src, int64(i))
	}
	// Fewer inputs than variables: the missing ones read as false.
	e := MustParseExpr("a*b+!c", []string{"a", "b", "c"})
	p := Compile(e, 2)
	out := make([]uint64, 1)
	regs := make([][]uint64, p.Regs())
	for i := range regs {
		regs[i] = make([]uint64, 1)
	}
	p.Run([][]uint64{{0b1100}, {0b1010}}, out, regs)
	if want := e.EvalWords([]uint64{0b1100, 0b1010}); out[0] != want {
		t.Fatalf("short inputs: compiled %#x, EvalWords %#x", out[0], want)
	}
}

// FuzzCompile checks that the compiled program of any expression over at
// most six variables that ParseExpr accepts equals EvalWords.
func FuzzCompile(f *testing.F) {
	for i, src := range compileSeeds {
		f.Add(src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		checkCompiled(t, src, seed)
	})
}
