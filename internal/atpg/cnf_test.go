package atpg

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"powder/internal/cellib"
	"powder/internal/logic"
	"powder/internal/sat"
)

// referenceCellClauses is the cell encoding the clause templates replaced:
// the onset and offset minterms of tt minimized for every gate encoded.
func referenceCellClauses(s sat.ClauseAdder, tt logic.TT, ins []int, out int) {
	n := tt.N
	onset := logic.NewSOP(n)
	offset := logic.NewSOP(n)
	for m := uint(0); m < 1<<uint(n); m++ {
		var c logic.Cube
		for i := 0; i < n; i++ {
			c.Mask |= 1 << uint(i)
			if m>>uint(i)&1 == 1 {
				c.Val |= 1 << uint(i)
			}
		}
		if tt.Eval(m) {
			onset.Add(c)
		} else {
			offset.Add(c)
		}
	}
	onset.Minimize()
	offset.Minimize()
	opposite := func(lits []sat.Lit, c logic.Cube) []sat.Lit {
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if c.Mask&bit == 0 {
				continue
			}
			if c.Val&bit != 0 {
				lits = append(lits, sat.Neg(ins[i]))
			} else {
				lits = append(lits, sat.Pos(ins[i]))
			}
		}
		return lits
	}
	for _, c := range onset.Cubes {
		s.AddClause(opposite([]sat.Lit{sat.Pos(out)}, c)...)
	}
	for _, c := range offset.Cubes {
		s.AddClause(opposite([]sat.Lit{sat.Neg(out)}, c)...)
	}
}

// clauseLog records the clauses added to it, literal for literal.
type clauseLog struct {
	vars    int
	clauses [][]sat.Lit
}

func (l *clauseLog) NewVar() int { l.vars++; return l.vars - 1 }

func (l *clauseLog) AddClause(lits ...sat.Lit) bool {
	l.clauses = append(l.clauses, slices.Clone(lits))
	return true
}

// TestCellTemplatesMatchReference pins that the clause templates emit
// exactly the clauses, in the literal order, that minimizing each gate's
// cover emitted, so every proof runs the same search: every lib2 cell,
// every 2-input table (the 3-signal substitutions' gates) and random
// tables of 0 to 6 inputs. Four goroutines encode every table at once,
// as region workers do, so the random tables are compiled concurrently
// and then read from the cache.
func TestCellTemplatesMatchReference(t *testing.T) {
	var tables []logic.TT
	for _, c := range cellib.Lib2().Cells() {
		tables = append(tables, c.TT)
	}
	for bits := uint64(0); bits < 16; bits++ {
		tables = append(tables, logic.TT{N: 2, Bits: bits})
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= maxCellInputs; n++ {
		for i := 0; i < 20; i++ {
			mask := ^uint64(0)
			if n < 6 {
				mask = 1<<(1<<uint(n)) - 1
			}
			tables = append(tables, logic.TT{N: n, Bits: rng.Uint64() & mask})
		}
	}
	ins := make([][]int, len(tables))
	for i, tt := range tables {
		ins[i] = rng.Perm(40)[:tt.N]
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf clauseBuf
			for i, tt := range tables {
				var got, want clauseLog
				encodeCellClauses(&got, &buf, tt, ins[i], 41)
				referenceCellClauses(&want, tt, ins[i], 41)
				if !slices.EqualFunc(got.clauses, want.clauses, slices.Equal[[]sat.Lit]) {
					t.Errorf("table %+v: template clauses %v, reference %v", tt, got.clauses, want.clauses)
					return
				}
			}
		}()
	}
	wg.Wait()
}
