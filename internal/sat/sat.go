// Package sat implements a compact CDCL (conflict-driven clause learning)
// SAT solver: two-watched-literal propagation, first-UIP conflict analysis,
// VSIDS-style variable activities with phase saving, geometric restarts,
// and a conflict budget. The solver backs the ATPG package's permissibility
// proofs; a budget overrun plays the role of an "ATPG abort" in the paper
// (the candidate substitution is then rejected).
package sat

import (
	"context"
	"fmt"
	"slices"

	"powder/internal/obs/trace"
)

// Lit is a literal: variable index shifted left once, low bit = negated.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v3 or !v3.
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("!v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// Result is the outcome of Solve.
type Result int

const (
	// Unknown means the conflict budget was exhausted.
	Unknown Result = iota
	// Sat means a satisfying assignment was found (see Value).
	Sat
	// Unsat means the formula (under the assumptions) is unsatisfiable.
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

type clause struct {
	lits   []Lit
	learnt bool
	act    float64
}

const (
	unassigned int8 = -1
	valFalse   int8 = 0
	valTrue    int8 = 1
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]*clause // indexed by Lit

	assign  []int8
	level   []int32
	reason  []*clause
	phase   []int8 // saved phase per var
	trail   []Lit
	trailAt []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	heap     []int32 // binary max-heap of vars by activity
	heapPos  []int32 // var -> heap index, -1 if absent

	clauseInc float64

	ok bool // false once a top-level conflict is found

	// Budget: conflicts allowed per Solve; <=0 means unlimited.
	budget int64

	// Cancellation: when ctx can be cancelled (poll), Solve polls it
	// every pollEvery search-loop iterations and returns Unknown once it
	// is done. The tracer and the current span ride ctx either way.
	ctx         context.Context
	poll        bool
	pollCounter int
	interrupted bool

	// Statistics.
	Conflicts    int64
	Decisions    int64
	Propagations int64

	seen     []bool // scratch for analyze
	analyzeC []Lit
	model    []int8 // snapshot of the last satisfying assignment
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, clauseInc: 1, ok: true}
}

// SetBudget limits the number of conflicts a single Solve may spend;
// non-positive means unlimited.
func (s *Solver) SetBudget(conflicts int64) { s.budget = conflicts }

// pollEvery is how many CDCL search-loop iterations pass between
// cancellation polls. Each iteration is one propagate/decide (or
// conflict) step, so the response latency to a cancelled context is a
// few microseconds of search — far below any wall-clock deadline a
// caller would set.
const pollEvery = 64

// SetContext attaches a cancellation context to the solver. Solve polls
// it periodically during search and returns Unknown once the context is
// done; Interrupted then reports true (distinguishing cancellation from
// a conflict-budget overrun). A nil or never-cancellable context
// disables polling; Solve still opens its span under ctx.
func (s *Solver) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.poll = ctx != nil && ctx.Done() != nil
}

// Interrupted reports whether the last Solve returned Unknown because
// its context was cancelled (rather than because the conflict budget
// ran out).
func (s *Solver) Interrupted() bool { return s.interrupted }

// cancelled polls the attached context at a decimated rate.
func (s *Solver) cancelled() bool {
	if !s.poll {
		return false
	}
	s.pollCounter++
	if s.pollCounter < pollEvery {
		return false
	}
	s.pollCounter = 0
	if s.ctx.Err() != nil {
		s.interrupted = true
		return true
	}
	return false
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, valFalse)
	s.activity = append(s.activity, 0)
	s.heapPos = append(s.heapPos, -1)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heapInsert(int32(v))
	return v
}

// value returns the current value of a literal.
func (s *Solver) value(l Lit) int8 {
	a := s.assign[l.Var()]
	if a == unassigned {
		return unassigned
	}
	if l.Sign() {
		return 1 - a
	}
	return a
}

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool {
	if v < len(s.model) {
		return s.model[v] == valTrue
	}
	return false
}

// AddClause adds a clause at the top level. It returns false if the solver
// became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: drop duplicate and false literals, detect tautology and
	// satisfied clauses. seen (clear outside analyze) marks the variables
	// of the literals kept so far, so a clause of k literals costs O(k)
	// however wide it is (a miter's tap clause has one literal per
	// observing output); only a repeated variable scans the kept ones.
	out := make([]Lit, 0, len(lits))
	satisfied := false
	for _, l := range lits {
		v := l.Var()
		if v >= len(s.assign) {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		if s.seen[v] {
			if slices.Contains(out, l) {
				continue
			}
			satisfied = true // tautology
			break
		}
		if val := s.value(l); val == valTrue {
			satisfied = true // already satisfied at level 0
			break
		} else if val == valFalse {
			continue // literal already false at level 0
		}
		s.seen[v] = true
		out = append(out, l)
	}
	for _, l := range out {
		s.seen[l.Var()] = false
	}
	if satisfied {
		return true
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.enqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailAt) }

// enqueue asserts literal l with the given reason clause.
func (s *Solver) enqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assign[v] = valFalse
	} else {
		s.assign[v] = valTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		s.watches[p] = ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Make sure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If the first watch is true, the clause is satisfied.
			if s.value(c.lits[0]) == valTrue {
				s.watches[p] = append(s.watches[p], c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			s.watches[p] = append(s.watches[p], c)
			if s.value(c.lits[0]) == valFalse {
				// Conflict: restore the remaining watchers and bail.
				s.watches[p] = append(s.watches[p], ws[i+1:]...)
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(c.lits[0], c)
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := s.analyzeC[:0]
	learnt = append(learnt, 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	var toClear []int

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}
	for _, v := range toClear {
		s.seen[v] = false
	}
	s.analyzeC = learnt

	// Backtrack level: second-highest level in the learnt clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	out := make([]Lit, len(learnt))
	copy(out, learnt)
	return out, bt
}

// backtrackTo undoes assignments above the given decision level.
func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailAt[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = unassigned
		s.reason[v] = nil
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:bound]
	s.trailAt = s.trailAt[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(int(s.heapPos[v]))
	}
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.clauseInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

// Solve determines satisfiability under the given assumptions. On Sat the
// model is readable via Value. Assumption conflicts yield Unsat.
func (s *Solver) Solve(assumptions ...Lit) Result {
	// One span per solve when the solver's context carries a tracer: the
	// proof's exact CDCL effort (conflicts, decisions, propagations)
	// becomes visible in the run's flamegraph. Without a tracer this is
	// two context lookups, nothing else.
	_, sp := trace.StartSpan(s.ctx, "sat-solve")
	if sp == nil {
		return s.solve(assumptions...)
	}
	c0, d0, p0 := s.Conflicts, s.Decisions, s.Propagations
	res := s.solve(assumptions...)
	sp.SetAttr("result", res.String())
	sp.SetAttr("conflicts", s.Conflicts-c0)
	sp.SetAttr("decisions", s.Decisions-d0)
	sp.SetAttr("propagations", s.Propagations-p0)
	sp.SetAttr("vars", len(s.assign))
	sp.SetAttr("clauses", len(s.clauses))
	sp.End()
	return res
}

func (s *Solver) solve(assumptions ...Lit) Result {
	s.interrupted = false
	if !s.ok {
		return Unsat
	}
	defer s.backtrackTo(0)

	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}

	// Apply assumptions, each on its own decision level.
	for _, a := range assumptions {
		switch s.value(a) {
		case valTrue:
			continue
		case valFalse:
			return Unsat
		}
		s.trailAt = append(s.trailAt, int32(len(s.trail)))
		s.enqueue(a, nil)
		if s.propagate() != nil {
			return Unsat
		}
	}
	rootLevel := s.decisionLevel()

	conflictsAtStart := s.Conflicts
	restartLimit := int64(100)
	conflictsSinceRestart := int64(0)

	for {
		if s.cancelled() {
			return Unknown
		}
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.decisionLevel() <= rootLevel {
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			if bt < rootLevel {
				bt = rootLevel
			}
			s.backtrackTo(bt)
			if len(learnt) == 1 && rootLevel == 0 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, act: s.clauseInc}
				s.learnts = append(s.learnts, c)
				if len(learnt) >= 2 {
					s.watch(c)
				}
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.clauseInc /= 0.999

			if s.budget > 0 && s.Conflicts-conflictsAtStart >= s.budget {
				return Unknown
			}
			if conflictsSinceRestart >= restartLimit {
				conflictsSinceRestart = 0
				restartLimit = int64(float64(restartLimit) * 1.5)
				s.backtrackTo(rootLevel)
			}
			continue
		}

		// Pick a branching variable.
		v := s.pickBranchVar()
		if v < 0 {
			s.model = append(s.model[:0], s.assign...)
			return Sat
		}
		s.Decisions++
		s.trailAt = append(s.trailAt, int32(len(s.trail)))
		if s.phase[v] == valTrue {
			s.enqueue(Pos(v), nil)
		} else {
			s.enqueue(Neg(v), nil)
		}
	}
}

// pickBranchVar pops the highest-activity unassigned variable, or -1.
func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPopMax()
		if s.assign[v] == unassigned {
			return int(v)
		}
	}
	return -1
}

// --- activity heap ---

func (s *Solver) heapLess(i, j int) bool {
	return s.activity[s.heap[i]] > s.activity[s.heap[j]]
}

func (s *Solver) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapPos[s.heap[i]] = int32(i)
	s.heapPos[s.heap[j]] = int32(j)
}

func (s *Solver) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

func (s *Solver) heapDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && s.heapLess(l, best) {
			best = l
		}
		if r < n && s.heapLess(r, best) {
			best = r
		}
		if best == i {
			return
		}
		s.heapSwap(i, best)
		i = best
	}
}

func (s *Solver) heapInsert(v int32) {
	s.heap = append(s.heap, v)
	i := len(s.heap) - 1
	s.heapPos[v] = int32(i)
	s.heapUp(i)
}

func (s *Solver) heapPopMax() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}
