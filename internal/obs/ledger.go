package obs

import (
	"sort"
	"sync"
)

// Ledger outcome codes of one recorded attempt.
const (
	// LedgerApplied marks an attempt that was performed and kept.
	LedgerApplied = "applied"
	// LedgerRejected marks an attempt discarded at some pipeline stage;
	// LedgerAttempt.Reason carries the reject-reason code.
	LedgerRejected = "rejected"
)

// defaultLedgerLimit bounds the retained entries per outcome class when
// the caller does not choose one.
const defaultLedgerLimit = 4096

// LedgerProof records the permissibility-proof effort one attempt
// consumed, summed over the initial check and any budget-escalated
// retries.
type LedgerProof struct {
	// Verdict is the final ATPG verdict ("permissible",
	// "not-permissible", "aborted").
	Verdict string `json:"verdict"`
	// Conflicts and Decisions sum the SAT effort across all proof rounds.
	Conflicts int64 `json:"conflicts"`
	Decisions int64 `json:"decisions"`
	// Seconds is the total proof wall time.
	Seconds float64 `json:"seconds"`
	// Budget is the conflict budget of the last round (escalations grow
	// it geometrically).
	Budget int64 `json:"budget,omitempty"`
	// Escalations counts budget-escalated retries beyond the first proof.
	Escalations int `json:"escalations,omitempty"`
	// VectorRefuted marks a refutation by a stored counterexample vector,
	// which ran no SAT search.
	VectorRefuted bool `json:"vector_refuted,omitempty"`
}

// LedgerNodeDelta is one node's share of an applied attempt's realized
// power change (positive = power removed at that node).
type LedgerNodeDelta struct {
	Node  string  `json:"node"`
	Delta float64 `json:"delta"`
}

// LedgerAttempt is the provenance record of one substitution attempt:
// what was tried, what the pipeline decided at each stage, and — for
// applied attempts — the realized power change measured by re-running
// the power model on the touched cone.
type LedgerAttempt struct {
	// Seq orders attempts within the run (1-based, assigned by Record).
	Seq int `json:"seq"`
	// Kind is the substitution class ("OS2", "IS2", "OS3", "IS3").
	Kind string `json:"kind"`
	// Target and Source describe the substituted and substituting
	// signals ("stem 12", "branch 12->34.1"; "!34", "nand2(34,56)").
	Target string `json:"target"`
	Source string `json:"source"`
	// PredictedGain is the estimated power gain PG_A+PG_B+PG_C at
	// selection time.
	PredictedGain float64 `json:"predicted_gain"`
	// Outcome is LedgerApplied or LedgerRejected.
	Outcome string `json:"outcome"`
	// Reason is the reject-reason code ("" for applied attempts).
	Reason string `json:"reason,omitempty"`
	// Proof is the permissibility-proof record; nil when the attempt was
	// discarded before reaching the checker.
	Proof *LedgerProof `json:"proof,omitempty"`
	// PowerBefore/PowerAfter bracket the apply (applied attempts only).
	PowerBefore float64 `json:"power_before,omitempty"`
	PowerAfter  float64 `json:"power_after,omitempty"`
	// RealizedGain is PowerBefore - PowerAfter: the measured drop of
	// P = sum C(i)*E(i), which telescopes exactly to the run's headline
	// reduction when summed over all applied attempts.
	RealizedGain float64 `json:"realized_gain,omitempty"`
	// Cone decomposes RealizedGain into per-node contributions over the
	// touched cone, largest magnitude first; an "(other)" entry keeps the
	// decomposition exact when the cone is wider than the retention cap.
	Cone []LedgerNodeDelta `json:"cone,omitempty"`
	// Region is the partition region that proposed the attempt in a
	// parallel run (1-based so the zero value marks sequential runs and
	// stays omitted from JSON).
	Region int `json:"region,omitempty"`
}

// Ledger is a bounded-memory record of every substitution attempt of one
// optimization run. Applied and rejected entries are retained in
// separate rings so a flood of rejects can never evict the attribution
// table; evicted entries stay counted.
type Ledger struct {
	mu    sync.Mutex
	limit int

	applied        []LedgerAttempt
	appliedDropped int64

	rejected        []LedgerAttempt
	rejectedStart   int // ring head within rejected
	rejectedDropped int64

	rejects   map[string]int // reason -> count, including count-only rejects
	attempts  int            // recorded attempts (not count-only)
	seq       int
	predicted float64 // sum of PredictedGain over applied attempts
	realized  float64 // sum of RealizedGain over applied attempts
}

// NewLedger returns a ledger retaining up to limit entries per outcome
// class (limit <= 0 uses the default of 4096).
func NewLedger(limit int) *Ledger {
	if limit <= 0 {
		limit = defaultLedgerLimit
	}
	return &Ledger{limit: limit, rejects: make(map[string]int)}
}

// Record appends one attempt, assigns its sequence number, and returns
// it. Totals (attempt counts, predicted/realized sums) are tracked even
// when the retention bound later drops the entry, so summary totals stay
// exact on arbitrarily long runs.
func (l *Ledger) Record(a LedgerAttempt) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	a.Seq = l.seq
	l.attempts++
	if a.Outcome == LedgerApplied {
		l.predicted += a.PredictedGain
		l.realized += a.RealizedGain
		if len(l.applied) < l.limit {
			l.applied = append(l.applied, a)
		} else {
			l.appliedDropped++
		}
		return a.Seq
	}
	l.rejects[a.Reason]++
	if len(l.rejected) < l.limit {
		l.rejected = append(l.rejected, a)
	} else {
		l.rejected[l.rejectedStart] = a
		l.rejectedStart = (l.rejectedStart + 1) % l.limit
		l.rejectedDropped++
	}
	return a.Seq
}

// CountReject counts a rejected candidate without materializing an
// entry. The optimizer uses it for bulk invalidations (stale candidates
// after an apply) where per-entry records would be noise.
func (l *Ledger) CountReject(reason string) {
	l.mu.Lock()
	l.rejects[reason]++
	l.mu.Unlock()
}

// LedgerNodeAttribution aggregates the realized gain landed on one node
// across all applied attempts.
type LedgerNodeAttribution struct {
	Node     string  `json:"node"`
	Moves    int     `json:"moves"`
	Realized float64 `json:"realized_gain"`
}

// LedgerSummary is the serializable outcome of a run's ledger: exact
// totals plus the retained entries. It is what core.Result carries, what
// `powder -ledger-json` writes, and what powderd serves at
// /v1/jobs/{id}/ledger.
type LedgerSummary struct {
	// Activity names the workload activity model the run's estimates —
	// and therefore every predicted and realized gain below — were
	// computed under. Empty means the uniform temporal-independence
	// assumption; otherwise it carries the activity source and coverage
	// (e.g. "workload.vcd sha256:… matched 5/7 inputs").
	Activity string `json:"activity,omitempty"`
	// Attempts counts recorded attempts (selected candidates that went
	// through the delay/proof/apply stages).
	Attempts int `json:"attempts"`
	// Applied counts performed substitutions.
	Applied int `json:"applied"`
	// Rejected counts discarded candidates by reason code, including
	// count-only rejects that have no entry.
	Rejected map[string]int `json:"rejected,omitempty"`
	// DroppedMoves/DroppedRejects count entries evicted by the retention
	// bound (the totals above still include them).
	DroppedMoves   int64 `json:"dropped_moves,omitempty"`
	DroppedRejects int64 `json:"dropped_rejects,omitempty"`
	// PredictedGain and RealizedGain sum over all applied attempts;
	// RealizedGain equals the run's headline power drop up to float
	// round-off.
	PredictedGain float64 `json:"predicted_gain"`
	RealizedGain  float64 `json:"realized_gain"`
	// Moves is the attribution table: applied attempts in apply order.
	Moves []LedgerAttempt `json:"moves,omitempty"`
	// Rejects holds the retained rejected attempts in record order.
	Rejects []LedgerAttempt `json:"rejects,omitempty"`
	// ByNode aggregates the per-node cone deltas of all retained moves,
	// largest realized gain first.
	ByNode []LedgerNodeAttribution `json:"by_node,omitempty"`
}

// Summary snapshots the ledger.
func (l *Ledger) Summary() *LedgerSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &LedgerSummary{
		Attempts:       l.attempts,
		Applied:        len(l.applied) + int(l.appliedDropped),
		Rejected:       make(map[string]int, len(l.rejects)),
		DroppedMoves:   l.appliedDropped,
		DroppedRejects: l.rejectedDropped,
		PredictedGain:  l.predicted,
		RealizedGain:   l.realized,
		Moves:          append([]LedgerAttempt(nil), l.applied...),
	}
	for reason, n := range l.rejects {
		s.Rejected[reason] = n
	}
	s.Rejects = make([]LedgerAttempt, 0, len(l.rejected))
	for i := 0; i < len(l.rejected); i++ {
		s.Rejects = append(s.Rejects, l.rejected[(l.rejectedStart+i)%len(l.rejected)])
	}
	s.ByNode = attributeByNode(s.Moves)
	return s
}

// Brief returns a copy of the summary without the entry slices, for
// embedding in reports where only the totals matter.
func (s *LedgerSummary) Brief() *LedgerSummary {
	if s == nil {
		return nil
	}
	b := *s
	b.Moves, b.Rejects, b.ByNode = nil, nil, nil
	return &b
}

// attributeByNode folds the cone deltas of the moves into a per-node
// table sorted by descending realized gain.
func attributeByNode(moves []LedgerAttempt) []LedgerNodeAttribution {
	type agg struct {
		moves    int
		realized float64
	}
	byNode := make(map[string]*agg)
	for _, m := range moves {
		seen := make(map[string]bool, len(m.Cone))
		for _, d := range m.Cone {
			a := byNode[d.Node]
			if a == nil {
				a = &agg{}
				byNode[d.Node] = a
			}
			a.realized += d.Delta
			if !seen[d.Node] {
				a.moves++
				seen[d.Node] = true
			}
		}
	}
	out := make([]LedgerNodeAttribution, 0, len(byNode))
	for node, a := range byNode {
		out = append(out, LedgerNodeAttribution{Node: node, Moves: a.moves, Realized: a.realized})
	}
	// Deterministic order: realized gain descending, name ascending.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Realized != out[j].Realized {
			return out[i].Realized > out[j].Realized
		}
		return out[i].Node < out[j].Node
	})
	return out
}
