package sat

// ClauseAdder is the minimal clause-emission interface: the one-shot
// Solver satisfies it directly, and an incremental Scope satisfies it by
// guarding every clause with its activation literal. CNF encoders target
// this interface so the same encoding serves both proving styles.
type ClauseAdder interface {
	NewVar() int
	AddClause(lits ...Lit) bool
}

var (
	_ ClauseAdder = (*Solver)(nil)
	_ ClauseAdder = (*Scope)(nil)
)

// Incremental layers assumption-scoped solving on one long-lived Solver.
// Clauses added through the solver itself (Base) are permanent; clauses
// added through a Scope are guarded by that scope's activation literal and
// only bind while solving that scope. Retiring a scope asserts the
// negated activation literal, permanently satisfying its clauses.
//
// The payoff over a fresh solver per query: permanent clauses are encoded
// and propagated once, and learned clauses survive across queries —
// a clause learned from permanent clauses alone constrains every later
// query, while one derived through a scope's clauses carries that scope's
// negated activation literal and silently deactivates with it.
type Incremental struct {
	s *Solver
	// guarded is the scratch buffer Scope.AddClause builds each guarded
	// clause in: Solver.AddClause copies the literals it keeps and holds
	// on to none.
	guarded []Lit

	// ScopesOpened and ScopesRetired count Scope/Retire calls.
	ScopesOpened, ScopesRetired int
}

// NewIncremental returns an incremental context over a fresh solver.
func NewIncremental() *Incremental {
	return &Incremental{s: New()}
}

// Base returns the underlying solver; clauses added to it are permanent.
// Budget, context, and statistics accessors live there too.
func (inc *Incremental) Base() *Solver { return inc.s }

// Scope opens a new retirable clause scope.
func (inc *Incremental) Scope() *Scope {
	inc.ScopesOpened++
	return &Scope{inc: inc, act: inc.s.NewVar()}
}

// Scope is one activation-literal-guarded clause group.
type Scope struct {
	inc     *Incremental
	act     int
	retired bool
}

// NewVar allocates a variable. Variables are global to the solver; only
// clauses are scoped.
func (sc *Scope) NewVar() int { return sc.inc.s.NewVar() }

// AddClause adds lits guarded by the scope's activation literal, so the
// clause binds only while solving this scope. It returns false if the
// solver became trivially unsatisfiable.
func (sc *Scope) AddClause(lits ...Lit) bool {
	if sc.retired {
		panic("sat: AddClause on a retired scope")
	}
	inc := sc.inc
	inc.guarded = append(append(inc.guarded[:0], lits...), Neg(sc.act))
	return inc.s.AddClause(inc.guarded...)
}

// Solve determines satisfiability of the permanent clauses plus this
// scope's clauses, under the extra assumptions.
func (sc *Scope) Solve(assumptions ...Lit) Result {
	if sc.retired {
		panic("sat: Solve on a retired scope")
	}
	asm := make([]Lit, 0, len(assumptions)+1)
	asm = append(asm, Pos(sc.act))
	asm = append(asm, assumptions...)
	return sc.inc.s.Solve(asm...)
}

// Retire permanently deactivates the scope's clauses. Learned clauses
// that mention the activation literal are satisfied from here on; those
// that never depended on this scope keep constraining later queries.
// Retire is idempotent.
func (sc *Scope) Retire() {
	if sc.retired {
		return
	}
	sc.retired = true
	sc.inc.ScopesRetired++
	sc.inc.s.AddClause(Neg(sc.act))
}
