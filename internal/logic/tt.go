package logic

import (
	"fmt"
	"math/bits"
)

// TT is a dense truth table over up to 6 variables, packed into a single
// 64-bit word: bit m holds the function value on the minterm whose variable
// i takes bit i of m. Library cells never exceed 6 inputs, so TT is the
// canonical functional fingerprint for cells.
type TT struct {
	N    int // number of variables, 0..6
	Bits uint64
}

// ttMask returns the mask of the valid minterm bits for n variables.
func ttMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << uint(n))) - 1
}

// varPattern[i] is the truth table of the bare variable i over 6 variables.
var varPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// TTConst returns the constant truth table over n variables.
func TTConst(v bool, n int) TT {
	if n < 0 || n > 6 {
		panic(fmt.Sprintf("logic: TT supports 0..6 variables, got %d", n))
	}
	if v {
		return TT{N: n, Bits: ttMask(n)}
	}
	return TT{N: n}
}

// TTVar returns the truth table of variable i over n variables.
func TTVar(i, n int) TT {
	if i < 0 || i >= n || n > 6 {
		panic(fmt.Sprintf("logic: TTVar(%d, %d) out of range", i, n))
	}
	return TT{N: n, Bits: varPattern[i] & ttMask(n)}
}

// TTFromExpr computes the truth table of e over n variables (n must cover
// every variable referenced by e, and be at most 6).
func TTFromExpr(e *Expr, n int) TT {
	if e.MaxVar() >= n {
		panic(fmt.Sprintf("logic: expression references variable %d beyond width %d", e.MaxVar(), n))
	}
	in := make([]uint64, n)
	for i := 0; i < n; i++ {
		in[i] = varPattern[i]
	}
	return TT{N: n, Bits: e.EvalWords(in) & ttMask(n)}
}

// Eval returns the value of the table on minterm m.
func (t TT) Eval(m uint) bool {
	if m >= 1<<uint(t.N) {
		panic(fmt.Sprintf("logic: minterm %d out of range for %d vars", m, t.N))
	}
	return t.Bits>>(m)&1 == 1
}

// Eval2Words evaluates a 2-variable table bit-parallel into out: bit b of
// out[w] is the table's value on the minterm whose variable 0 is bit b
// of b[w] and whose variable 1 is bit b of c[w].
func (t TT) Eval2Words(b, c, out []uint64) {
	// on[m] is all ones when minterm m is in the on-set.
	var on [4]uint64
	for m := range on {
		if t.Eval(uint(m)) {
			on[m] = ^uint64(0)
		}
	}
	for w := range out {
		out[w] = on[0]&^b[w]&^c[w] | on[1]&b[w]&^c[w] | on[2]&^b[w]&c[w] | on[3]&b[w]&c[w]
	}
}

// Not returns the complement.
func (t TT) Not() TT { return TT{N: t.N, Bits: ^t.Bits & ttMask(t.N)} }

// And returns the conjunction; both tables must have the same width.
func (t TT) And(u TT) TT { t.check(u); return TT{N: t.N, Bits: t.Bits & u.Bits} }

// Or returns the disjunction; both tables must have the same width.
func (t TT) Or(u TT) TT { t.check(u); return TT{N: t.N, Bits: t.Bits | u.Bits} }

// Xor returns the exclusive-or; both tables must have the same width.
func (t TT) Xor(u TT) TT { t.check(u); return TT{N: t.N, Bits: t.Bits ^ u.Bits} }

func (t TT) check(u TT) {
	if t.N != u.N {
		panic(fmt.Sprintf("logic: TT width mismatch %d vs %d", t.N, u.N))
	}
}

// Equal reports whether the two tables denote the same function over the
// same number of variables.
func (t TT) Equal(u TT) bool { return t.N == u.N && t.Bits == u.Bits }

// IsConst reports whether the function is constant, and if so which constant.
func (t TT) IsConst() (constant, value bool) {
	m := ttMask(t.N)
	switch t.Bits & m {
	case 0:
		return true, false
	case m:
		return true, true
	}
	return false, false
}

// OnSetSize returns the number of minterms on which the function is true.
func (t TT) OnSetSize() int { return bits.OnesCount64(t.Bits & ttMask(t.N)) }

// DependsOn reports whether the function actually depends on variable i.
func (t TT) DependsOn(i int) bool {
	if i < 0 || i >= t.N {
		return false
	}
	return t.Cofactor(i, false).Bits != t.Cofactor(i, true).Bits
}

// Cofactor returns the cofactor of the function with variable i fixed to v.
// The result is still expressed over N variables (variable i becomes a
// don't-care dimension).
func (t TT) Cofactor(i int, v bool) TT {
	if i < 0 || i >= t.N {
		panic(fmt.Sprintf("logic: cofactor variable %d out of range", i))
	}
	shift := uint(1) << uint(i)
	var half uint64
	if v {
		half = (t.Bits & varPattern[i]) | (t.Bits & varPattern[i] >> shift)
	} else {
		half = (t.Bits &^ varPattern[i]) | (t.Bits &^ varPattern[i] << shift)
	}
	return TT{N: t.N, Bits: half & ttMask(t.N)}
}

// String renders the table as a binary string, minterm 2^N-1 first.
func (t TT) String() string {
	n := 1 << uint(t.N)
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		if t.Bits>>uint(n-1-i)&1 == 1 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// NPNClass computes a cheap semi-canonical key under input permutation only
// (not negation): the minimum table bits over all input permutations. It is
// used to match structurally different but functionally identical cells.
func (t TT) NPNClass() uint64 {
	perm := make([]int, t.N)
	for i := range perm {
		perm[i] = i
	}
	min := t.Bits & ttMask(t.N)
	var rec func(k int)
	rec = func(k int) {
		if k == t.N {
			p := t.permute(perm)
			if p < min {
				min = p
			}
			return
		}
		for i := k; i < t.N; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return min
}

// Permute returns the table with variable i renamed to perm[i] (perm must
// be a permutation of 0..N-1).
func (t TT) Permute(perm []int) TT {
	if len(perm) != t.N {
		panic(fmt.Sprintf("logic: permutation of length %d for %d vars", len(perm), t.N))
	}
	return TT{N: t.N, Bits: t.permute(perm)}
}

// permute returns the table bits with variable i renamed to perm[i].
func (t TT) permute(perm []int) uint64 {
	var out uint64
	n := 1 << uint(t.N)
	for m := 0; m < n; m++ {
		if t.Bits>>uint(m)&1 == 0 {
			continue
		}
		var pm uint
		for i := 0; i < t.N; i++ {
			if m>>uint(i)&1 == 1 {
				pm |= 1 << uint(perm[i])
			}
		}
		out |= 1 << pm
	}
	return out
}
