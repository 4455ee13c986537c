// Package core implements POWDER, the paper's power optimization algorithm
// (Figure 5): a greedy sequence of permissible signal substitutions, each
// selected for maximum estimated power gain, optionally under a delay
// constraint.
//
// One optimization round:
//
//	power_estimate(netlist)
//	do {
//	  cand = get_candidate_substitutions(netlist)      // transform.Generate
//	  while repeat > 0 && cand != {} {
//	    good = select_power_red_subst(cand)            // PG_A+PG_B pre-select, PG_C reestimate
//	    if increases_delay(good) continue              // transform.DelayOK
//	    if !check_candidate(good) continue             // atpg.IncrementalChecker (abort => reject)
//	    perform_substitution(good)                     // transform.Apply
//	    power_estimate_update(good)                    // power.Model.Resync
//	  }
//	} while cand != {}
//
// Each harvest is one bulk-synchronous round of the region engine in
// parallel.go: the inner loop runs per fanout region on a replica, and the
// proven substitutions are then committed to the netlist in order. With
// Options.Parallelism <= 1 there is one region, so a round is exactly one
// iteration of the outer loop above.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"powder/internal/atpg"
	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/sta"
	"powder/internal/transform"
)

// Options configures one POWDER run.
type Options struct {
	// DelayConstraint is an absolute required time at the primary outputs;
	// <= 0 disables it unless DelayFactor is set.
	DelayConstraint float64
	// DelayFactor, when positive, sets the constraint to
	// initial_delay * DelayFactor (1.0 reproduces the paper's "with delay
	// constraints" mode; 1.2 allows a 20% delay increase, matching the
	// labels of the paper's Figure 6).
	DelayFactor float64
	// Repeat is the number of substitutions performed per candidate
	// harvest (the paper's `repeat` parameter). Default 10.
	Repeat int
	// PreselectK is how many of the best PG_A+PG_B candidates receive the
	// expensive PG_C reestimation per selection. Default 12; a K at least
	// the candidate count (math.MaxInt) reestimates every candidate, the
	// ablation of the paper's pre-selection heuristic.
	PreselectK int
	// MinGain is the smallest acceptable power gain; selection stops when
	// no candidate exceeds it. Default 1e-9.
	MinGain float64
	// MaxSubstitutions caps the total number of performed substitutions
	// (0 = unlimited).
	MaxSubstitutions int
	// CheckBudget is the conflict budget per permissibility proof
	// (0 = checker default). Budget exhaustion rejects the candidate.
	CheckBudget int64
	// MaxRetries is the per-run quota of budget-escalation retries: when
	// a proof aborts on budget exhaustion, the candidate is re-proved
	// with a geometrically larger budget (×4 per step, at most 3 steps
	// per candidate) until the quota runs out. 0 disables escalation and
	// aborted candidates are rejected immediately, as in the paper.
	MaxRetries int
	// Timeout is the wall-clock budget of the whole run; when it
	// expires the run stops cleanly — in-flight SAT proofs are
	// interrupted, no substitution is left half-applied, and Result
	// reports the best netlist found so far with Stopped set. 0 means
	// no deadline (an externally cancelled context behaves the same).
	Timeout time.Duration
	// Parallelism is the worker count of the region engine: every round
	// decomposes the netlist into up to that many fanout regions
	// (internal/partition), harvests, analyzes and proves concurrently per
	// region on replica netlists, and commits the proven substitutions
	// serially through the transactional journal (see parallel.go). <= 1
	// runs one region on one worker with a serial commit: the paper's
	// greedy loop, and Result.Parallel stays nil.
	Parallelism int
	// VerifyEvery refreshes the last-good safety-net snapshot after
	// this many applied substitutions by proving the current netlist
	// equivalent to the input (atpg.Equivalent). The snapshot is what a
	// recovered panic restores. 0 uses the default of 25; negative
	// disables periodic refresh (the input itself remains the
	// safety-net snapshot).
	VerifyEvery int
	// Inject carries fault-injection hooks for robustness tests; nil
	// (the production configuration) disables all injection.
	Inject *faultinject.Hooks
	// Power configures the probability estimation.
	Power power.Options
	// Activity describes the workload activity model behind
	// Power.InputProbs/InputToggles, recorded in the run ledger so
	// realized gains are attributed under the model that produced them.
	// Empty means the uniform temporal-independence assumption.
	Activity string
	// Transform configures candidate generation.
	Transform transform.Config
	// Progress, when non-nil, receives a compact run snapshot after the
	// initial estimates, after every applied substitution, and once more
	// when the run ends (Done set). It is invoked synchronously on the
	// optimization goroutine — callbacks must be fast and must not touch
	// the netlist. Serving layers use it to publish live job status.
	Progress func(Progress)
}

func (o *Options) normalize() {
	if o.Repeat <= 0 {
		o.Repeat = 10
	}
	if o.PreselectK <= 0 {
		o.PreselectK = 12
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-9
	}
	if o.VerifyEvery == 0 {
		o.VerifyEvery = 25
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
}

// ClassStats aggregates the effect of one substitution class, feeding the
// paper's Table 2.
type ClassStats struct {
	Count     int
	PowerGain float64
	AreaDelta float64
}

// Reject reason codes recorded in Result.Rejects and the ledger, and the
// outcome of a rejected candidate's span.
const (
	// RejectStale marks candidates invalidated by an earlier substitution
	// (nodes removed or rewired, or a cycle would form).
	RejectStale = "stale"
	// RejectLowGain marks the selection stopping because the best
	// remaining candidate's gain fell below MinGain.
	RejectLowGain = "low-gain"
	// RejectDelay marks candidates that would violate the delay
	// constraint.
	RejectDelay = "delay"
	// RejectRefuted marks candidates the exact ATPG check disproved.
	RejectRefuted = "refuted"
	// RejectAborted marks candidates whose proof exhausted the budget
	// (treated as not permissible, per the paper).
	RejectAborted = "aborted"
	// RejectApplyConflict marks candidates whose application failed due a
	// structural conflict with an earlier substitution.
	RejectApplyConflict = "apply-conflict"
	// RejectRollback marks candidates whose application was undone by
	// the transactional apply protocol: the post-apply re-validation
	// (netlist invariants or primary-output signature re-simulation)
	// detected damage and the edit was rolled back.
	RejectRollback = "rollback"
)

// Progress is the point-in-time run snapshot delivered to
// Options.Progress.
type Progress struct {
	// Applied is the number of substitutions performed so far.
	Applied int `json:"applied"`
	// Harvests is the number of candidate harvests completed so far.
	Harvests int `json:"harvests"`
	// Candidates is the total number of candidates examined so far.
	Candidates int `json:"candidates"`
	// InitialPower is the power estimate of the input circuit.
	InitialPower float64 `json:"initial_power"`
	// Power is the current power estimate.
	Power float64 `json:"power"`
	// Done is set on the final callback of the run.
	Done bool `json:"done"`
}

// StopReason explains why an optimization run ended.
type StopReason string

const (
	// StopCompleted is the normal termination: no further
	// power-reducing substitution exists.
	StopCompleted StopReason = "completed"
	// StopMaxSubs means the MaxSubstitutions cap was reached.
	StopMaxSubs StopReason = "max-substitutions"
	// StopDeadline means the Timeout (or an ancestor context deadline)
	// expired; the result holds the best netlist found so far.
	StopDeadline StopReason = "deadline"
	// StopCancelled means the caller's context was cancelled (e.g.
	// Ctrl-C); the result holds the best netlist found so far.
	StopCancelled StopReason = "cancelled"
	// StopPanic means a panic in the optimization path was recovered
	// and the netlist was restored to the last verified snapshot.
	StopPanic StopReason = "panic"
)

// EscalationStats records the adaptive proof-budget activity of one
// run: how often aborted proofs were retried with escalated budgets and
// what the retries decided.
type EscalationStats struct {
	// Retries counts escalated re-proofs attempted.
	Retries int `json:"retries"`
	// Permissible counts candidates recovered to a permissible verdict.
	Permissible int `json:"permissible"`
	// Refuted counts candidates an escalated proof disproved.
	Refuted int `json:"refuted"`
	// Exhausted counts candidates still aborted when the per-candidate
	// cap or the run quota ran out.
	Exhausted int `json:"exhausted"`
}

// Budget-escalation policy: each retry multiplies the proof budget by
// escalationFactor, at most escalationSteps times per candidate.
const (
	escalationFactor = 4
	escalationSteps  = 3
)

// Result summarizes an optimization run.
type Result struct {
	Initial      power.Report
	Final        power.Report
	InitialDelay float64
	FinalDelay   float64
	Constraint   float64 // 0 when unconstrained
	Applied      int
	Harvests     int
	Candidates   int // total candidates examined across harvests
	ByClass      map[transform.Kind]*ClassStats
	CheckStats   atpg.CheckStats
	Runtime      time.Duration
	// Phases is the run's span self-time table: each span of the run's
	// own subtree adds its duration minus its direct children's to the
	// row of its name. With one region the rows sum to Runtime; region
	// workers overlap theirs when Parallelism > 1.
	Phases obs.Phases
	// Rejects counts discarded candidates by reason code (the Reject*
	// constants); it is the map Ledger.Rejected.
	Rejects map[string]int
	// Stopped is why the run ended (StopCompleted for a full run).
	Stopped StopReason
	// Escalation summarizes the adaptive proof-budget retries.
	Escalation EscalationStats
	// SafetyRefreshes counts how often the last-good snapshot was
	// re-proved equivalent to the input and refreshed.
	SafetyRefreshes int
	// Ledger is the run's substitution-provenance record: every selected
	// attempt with its predicted gain, proof effort, and — for applied
	// moves — the realized power drop whose sum telescopes to
	// Initial.Power - Final.Power. It retains at most 4096 entries per
	// outcome class (applied moves and rejected attempts are bounded
	// independently, so a reject flood cannot evict the attribution
	// table); its totals count every attempt.
	Ledger *obs.LedgerSummary
	// Parallel summarizes the region engine's scheduling activity; nil
	// for one-region runs (Options.Parallelism <= 1).
	Parallel *ParallelStats
}

// ParallelStats summarizes one run's region scheduling: how the
// work was partitioned and how often region-local proofs had to be
// re-examined at commit time.
type ParallelStats struct {
	// Workers is the configured Options.Parallelism.
	Workers int `json:"workers"`
	// Rounds counts the bulk-synchronous rounds executed.
	Rounds int `json:"rounds"`
	// Regions sums the region count over all rounds.
	Regions int `json:"regions"`
	// Proposals counts region-proven substitutions reaching the commit
	// phase.
	Proposals int `json:"proposals"`
	// Conflicts counts proposals whose proof support intersected nodes
	// touched by another region's committed edit (or whose region chain
	// broke), forcing a serial re-proof unless the run is stopping.
	Conflicts int `json:"conflicts"`
	// Replays counts serial re-proofs run at commit time.
	Replays int `json:"replays"`
	// WorkerBusySeconds sums every region worker's wall time inside its
	// round (replica build through last proposal); ParallelSeconds sums
	// the concurrent-phase walls (first worker start to barrier clear),
	// so Workers*ParallelSeconds is the capacity the round structure
	// offered and BusyFrac is how much of it was used.
	WorkerBusySeconds float64 `json:"worker_busy_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	// CommitSeconds is the serial master-side commit wall time.
	CommitSeconds float64 `json:"commit_seconds"`
	// MaxBarrierSkewSeconds is the largest per-round gap between the
	// first and last worker to reach the round barrier — the
	// load-imbalance ceiling on speedup.
	MaxBarrierSkewSeconds float64 `json:"max_barrier_skew_seconds"`
	// ConflictLedger attributes commit conflicts to (region pair, node)
	// cells; nil when no conflicts were recorded.
	ConflictLedger *obs.ConflictSummary `json:"conflict_ledger,omitempty"`
}

// BusyFrac returns the mean worker utilization of the parallel phases:
// total worker busy time over the capacity Workers*ParallelSeconds
// (0 when nothing ran).
func (p *ParallelStats) BusyFrac() float64 {
	if p == nil || p.Workers == 0 || p.ParallelSeconds <= 0 {
		return 0
	}
	return p.WorkerBusySeconds / (float64(p.Workers) * p.ParallelSeconds)
}

// CommitShare returns the fraction of engine wall time spent in the
// serial commit phase — the Amdahl term that bounds parallel speedup.
func (p *ParallelStats) CommitShare() float64 {
	if p == nil {
		return 0
	}
	total := p.ParallelSeconds + p.CommitSeconds
	if total <= 0 {
		return 0
	}
	return p.CommitSeconds / total
}

// StoppedEarly reports whether the run ended before exhausting the
// candidate space (deadline, cancellation, or a recovered panic).
func (r *Result) StoppedEarly() bool {
	return r.Stopped == StopDeadline || r.Stopped == StopCancelled || r.Stopped == StopPanic
}

// PowerReductionPct returns the percentage power reduction.
func (r *Result) PowerReductionPct() float64 {
	if r.Initial.Power == 0 {
		return 0
	}
	return 100 * (r.Initial.Power - r.Final.Power) / r.Initial.Power
}

// AreaChangePct returns the percentage area change (negative = smaller).
func (r *Result) AreaChangePct() float64 {
	if r.Initial.Area == 0 {
		return 0
	}
	return 100 * (r.Final.Area - r.Initial.Area) / r.Initial.Area
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("power %.3f -> %.3f (-%.1f%%), area %.0f -> %.0f, delay %.2f -> %.2f, %d substitutions",
		r.Initial.Power, r.Final.Power, r.PowerReductionPct(),
		r.Initial.Area, r.Final.Area, r.InitialDelay, r.FinalDelay, r.Applied)
}

// Optimize runs POWDER on the netlist in place and returns the run summary.
// It is OptimizeCtx under a background context.
func Optimize(nl *netlist.Netlist, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), nl, opts)
}

// OptimizeCtx runs POWDER on the netlist in place and returns the run
// summary.
//
// The run is observable end to end: Result.Phases breaks the wall time
// into the self times of the run's spans (the pipeline phases
// power-estimate, delay-analysis, par-replica, harvest, ab-analysis,
// preselect, pgc-reestimate, delay-check, atpg-check, sat-solve, apply,
// power-resync, safety-verify, validate, and the optimize, round,
// region, commit and candidate containers; region workers overlap theirs
// when Parallelism > 1), Result.Rejects counts discarded candidates by
// reason code, and a tracer on ctx records every span as it ends (the
// candidate spans carry each selected substitution's outcome).
//
// Robustness guarantees:
//
//   - Cancelling ctx (or exceeding Options.Timeout) stops the run at the
//     next loop boundary — in-flight SAT proofs are interrupted within
//     microseconds of search — and returns the best netlist found so
//     far, never a half-applied state; Result.Stopped records the
//     reason.
//   - Every substitution is applied inside a netlist transaction and
//     re-validated (structural invariants plus a primary-output
//     signature re-simulation); damage rolls the transaction back and
//     the run continues, counting a "rollback" reject.
//   - A panic anywhere in the optimization path is recovered, the
//     netlist is restored to the last snapshot proven equivalent to the
//     input, and the panic is returned as an error.
func OptimizeCtx(ctx context.Context, nl *netlist.Netlist, opts Options) (res *Result, err error) {
	opts.normalize()
	start := time.Now()

	// Root span of the run and of its phase table: every round, region,
	// candidate, proof, and SAT solve below nests under it through the
	// context and adds its self time to Result.Phases. Without a tracer
	// on the context the spans only time themselves.
	ctx, optSpan := trace.StartTable(ctx, "optimize")
	optSpan.SetAttr("circuit", nl.Name)
	optSpan.SetAttr("parallelism", opts.Parallelism)

	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	res = &Result{
		ByClass: map[transform.Kind]*ClassStats{
			transform.OS2: {}, transform.IS2: {}, transform.OS3: {}, transform.IS3: {},
		},
		Stopped: StopCompleted,
	}
	r := &run{
		nl:      nl,
		opts:    &opts,
		span:    optSpan,
		conf:    obs.NewConflictLedger(0),
		res:     res,
		led:     obs.NewLedger(0),
		par:     &ParallelStats{Workers: opts.Parallelism},
		retries: opts.MaxRetries,
		// Safety net: the input clone is trivially the last netlist known
		// equivalent to the input; periodic verification moves it forward.
		input: nl.Clone(),
	}
	r.lastGood = r.input
	if opts.Parallelism > 1 {
		res.Parallel = r.par
	}
	r.prover = &prover{r: r, nl: nl, retries: &r.retries, escal: &res.Escalation}
	defer func() {
		if p := recover(); p != nil {
			nl.RestoreFrom(r.lastGood)
			res.Stopped = StopPanic
			// Best-effort final numbers for the restored netlist; a
			// second panic here must not mask the restore.
			func() {
				defer func() { _ = recover() }()
				res.Final = power.Estimate(nl, opts.Power).Snapshot()
				res.FinalDelay = sta.New(nl, 0).Delay()
			}()
			r.seal(start)
			err = fmt.Errorf("core: recovered panic in optimization: %v (netlist restored to last verified snapshot)", p)
		}
	}()

	phase(ctx, "power-estimate", func() {
		r.pm = power.Estimate(nl, opts.Power)
		res.Initial = r.pm.Snapshot()
	})
	phase(ctx, "delay-analysis", func() {
		res.InitialDelay = sta.New(nl, 0).Delay()
	})

	res.Constraint = opts.DelayConstraint
	if opts.DelayFactor > 0 {
		res.Constraint = res.InitialDelay * opts.DelayFactor
	}
	r.reportProgress(false)

	for round := 1; !r.done && !r.stopRequested(ctx); round++ {
		if !r.round(ctx, round) {
			break
		}
	}
	// A stop that landed in the last round's worker phase ended the loop
	// without reaching a stop check; the run is truncated all the same.
	r.stopRequested(ctx)

	phase(ctx, "power-estimate", func() { res.Final = r.pm.Snapshot() })
	phase(ctx, "delay-analysis", func() {
		res.FinalDelay = sta.New(nl, 0).Delay()
	})
	addCheckStats(&res.CheckStats, r.prover.stats())
	if par := res.Parallel; par != nil {
		if s := r.conf.Summary(); s.Total > 0 {
			par.ConflictLedger = &s
		}
	}
	var vErr error
	phase(ctx, "validate", func() { vErr = nl.Validate() })
	r.seal(start)
	r.reportProgress(true)
	if r.verifyErr != nil {
		return res, r.verifyErr
	}
	if vErr != nil {
		// Unreachable with the transactional apply in place, but if the
		// invariants are somehow broken, hand back the last verified
		// snapshot rather than a corrupt netlist.
		nl.RestoreFrom(r.lastGood)
		return res, fmt.Errorf("core: netlist invalid after optimization: %v (restored last verified snapshot)", vErr)
	}
	return res, nil
}

// phase runs f under a span of the given name, which is also its row in
// Result.Phases.
func phase(ctx context.Context, name string, f func()) {
	_, sp := trace.StartSpan(ctx, name)
	defer sp.End()
	f()
}

// coneLimit caps the per-move attribution entries the ledger retains;
// wider cones are folded into one exact "(other)" remainder entry.
const coneLimit = 32

// coneDeltas diffs two per-node power captures into the attribution of
// one applied substitution: which nodes gained or lost C(i)*E(i), largest
// magnitude first. The entries sum exactly to PowerBefore - PowerAfter.
func coneDeltas(nl *netlist.Netlist, before, after []float64) []obs.LedgerNodeDelta {
	n := len(before)
	if len(after) > n {
		n = len(after)
	}
	at := func(v []float64, i int) float64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	var deltas []obs.LedgerNodeDelta
	for i := 0; i < n; i++ {
		d := at(before, i) - at(after, i)
		if d == 0 {
			continue
		}
		name := ""
		if i < nl.NumNodes() {
			name = nl.Node(netlist.NodeID(i)).Name()
		}
		if name == "" {
			name = fmt.Sprintf("n%d", i)
		}
		deltas = append(deltas, obs.LedgerNodeDelta{Node: name, Delta: d})
	}
	sort.Slice(deltas, func(i, j int) bool {
		di, dj := deltas[i].Delta, deltas[j].Delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return deltas[i].Node < deltas[j].Node
	})
	if len(deltas) > coneLimit {
		rest := 0.0
		for _, d := range deltas[coneLimit:] {
			rest += d.Delta
		}
		deltas = append(deltas[:coneLimit], obs.LedgerNodeDelta{Node: "(other)", Delta: rest})
	}
	return deltas
}

// poSignatures captures the simulated value words of every primary
// output (masked to the valid vectors); a permissible substitution must
// leave them bit-identical.
func poSignatures(pm *power.Model, nl *netlist.Netlist) []uint64 {
	s := pm.Sim()
	sig := make([]uint64, 0, len(nl.Outputs())*s.Words())
	for _, po := range nl.Outputs() {
		for w, word := range s.Value(po.Driver) {
			sig = append(sig, word&s.ValidMask(w))
		}
	}
	return sig
}

// candidateValid re-checks a candidate against the current netlist state:
// earlier substitutions in the same harvest may have removed or rewired
// the nodes it references.
func candidateValid(nl *netlist.Netlist, s *transform.Substitution) bool {
	alive := func(id netlist.NodeID) bool {
		return id >= 0 && int(id) < nl.NumNodes() && !nl.Node(id).Dead()
	}
	if !alive(s.A) || !alive(s.Src.B) {
		return false
	}
	if s.Src.IsThree() && !alive(s.Src.C) {
		return false
	}
	var root netlist.NodeID
	if s.IsBranchSub() {
		if !alive(s.G) {
			return false
		}
		g := nl.Node(s.G)
		if s.Pin >= len(g.Fanins()) || g.Fanins()[s.Pin] != s.A {
			return false
		}
		root = s.G
	} else {
		if nl.Node(s.A).NumFanouts() == 0 {
			return false
		}
		root = s.A
	}
	// Cycle checks against the current structure (early-exit reachability,
	// not a full TFO: this runs for every surviving candidate after every
	// applied substitution).
	if nl.Reaches(root, s.Src.B) {
		return false
	}
	if s.Src.IsThree() && nl.Reaches(root, s.Src.C) {
		return false
	}
	if s.Src.InvertB && s.Inv == transform.InvReuse {
		if !alive(s.InvNode) || nl.Reaches(root, s.InvNode) {
			return false
		}
		inv := nl.Node(s.InvNode)
		if !inv.Cell().IsInverter() || inv.Fanins()[0] != s.Src.B {
			return false
		}
	}
	return true
}
