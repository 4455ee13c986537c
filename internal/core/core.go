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
//	    if !check_candidate(good) continue             // atpg.Checker (abort => reject)
//	    perform_substitution(good)                     // transform.Apply
//	    power_estimate_update(good)                    // power.Model refresh
//	  }
//	} while cand != {}
package core

import (
	"context"
	"errors"
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
	// expensive PG_C reestimation per selection. Default 12.
	PreselectK int
	// DisablePreselect reestimates PG_C for every candidate (the ablation
	// of the paper's pre-selection heuristic).
	DisablePreselect bool
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
	// Parallelism is the worker count of the intra-circuit parallel
	// engine: the netlist is decomposed into that many fanout regions
	// (internal/partition) and harvest/analysis/proving run concurrently
	// per region on replica netlists, with applies serialized through the
	// transactional journal on the master (see parallel.go). <= 1 runs
	// the sequential engine, whose output is byte-identical to builds
	// before the parallel engine existed.
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
	// InputDrive is the drive resistance assumed for primary inputs in the
	// timing model; extra load on an input then shifts its arrival time.
	// Zero models ideal input drivers.
	InputDrive float64
	// Power configures the probability estimation.
	Power power.Options
	// Activity describes the workload activity model behind
	// Power.InputProbs/InputToggles, recorded in the run ledger so
	// realized gains are attributed under the model that produced them.
	// Empty means the uniform temporal-independence assumption.
	Activity string
	// Transform configures candidate generation.
	Transform transform.Config
	// LedgerLimit bounds the run ledger's retained entries per outcome
	// class (applied moves and rejected attempts are bounded
	// independently, so a reject flood cannot evict the attribution
	// table). 0 uses the default of 4096; negative disables the ledger
	// entirely, leaving Result.Ledger nil.
	LedgerLimit int
	// Obs, when non-nil, receives structured run events (harvest, check,
	// apply, reject with reason codes) and per-phase metrics. A nil
	// observer disables all event construction at near-zero cost.
	Obs *obs.Observer
	// Progress, when non-nil, receives a compact run snapshot after the
	// initial estimates, after every applied substitution, and once more
	// when the run ends (Done set). It is invoked synchronously on the
	// optimization goroutine — callbacks must be fast and must not touch
	// the netlist. Serving layers use it to publish live job status.
	Progress func(Progress)
	// Trace, when non-nil, receives one line per performed substitution.
	// Deprecated compatibility adapter: it is wired onto the event sink;
	// prefer Obs for structured events.
	Trace func(string)
}

// observer returns the effective observer: Obs, plus the legacy Trace
// callback adapted as a sink that renders apply events in the historical
// "apply <substitution>" line format.
func (o *Options) observer() *obs.Observer {
	eff := o.Obs
	if o.Trace != nil {
		tr := o.Trace
		eff = obs.Tee(eff, obs.New(obs.SinkFunc(func(e obs.Event) {
			if e.Name == "apply" {
				tr(fmt.Sprintf("apply %v", e.Fields["sub"]))
			}
		}), nil))
	}
	return eff
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
}

// ClassStats aggregates the effect of one substitution class, feeding the
// paper's Table 2.
type ClassStats struct {
	Count     int
	PowerGain float64
	AreaDelta float64
}

// Reject reason codes recorded in Result.Rejects and emitted on "reject"
// events.
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
	// Phases is the wall-time breakdown of the run; its total accounts
	// for nearly all of Runtime.
	Phases obs.Phases
	// Rejects counts discarded candidates by reason code (the Reject*
	// constants).
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
	// Initial.Power - Final.Power. Nil when Options.LedgerLimit < 0.
	Ledger *obs.LedgerSummary
	// Parallel summarizes the parallel engine's scheduling activity;
	// nil for sequential runs (Options.Parallelism <= 1).
	Parallel *ParallelStats
}

// ParallelStats summarizes one parallel run's region scheduling: how the
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
	// broke), forcing a serial re-proof.
	Conflicts int `json:"conflicts"`
	// Replays counts serial re-proofs run at commit time.
	Replays int `json:"replays"`
	// SigCacheHits counts proofs short-circuited by the shared
	// refuted-miter signature cache.
	SigCacheHits int64 `json:"sigcache_hits"`
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
// into the pipeline phases (power-estimate, delay-analysis, harvest,
// ab-analysis, preselect, pgc-reestimate, delay-check, atpg-check, apply,
// power-resync, safety-verify, validate), Result.Rejects counts discarded
// candidates by reason code, and Options.Obs streams structured events
// while the run executes.
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
	if opts.Parallelism > 1 {
		return optimizeParallel(ctx, nl, opts)
	}
	o := opts.observer()
	opts.Power.Obs = o
	opts.Transform.Obs = o
	ph := obs.NewPhaseSet()
	start := time.Now()

	// Root span of the run; every phase, candidate, proof, and SAT solve
	// below nests under it through the context. A context without a
	// tracer makes all of this free.
	ctx, optSpan := trace.StartSpan(ctx, "optimize")
	optSpan.SetAttr("circuit", nl.Name)
	defer func() {
		if res != nil {
			optSpan.SetAttr("applied", res.Applied)
			optSpan.SetAttr("harvests", res.Harvests)
			optSpan.SetAttr("stopped", string(res.Stopped))
			optSpan.SetAttr("reduction_pct", res.PowerReductionPct())
		}
		optSpan.End()
	}()

	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	res = &Result{
		ByClass: map[transform.Kind]*ClassStats{
			transform.OS2: {}, transform.IS2: {}, transform.OS3: {}, transform.IS3: {},
		},
		Rejects: map[string]int{},
		Stopped: StopCompleted,
	}

	// The run ledger records every selected attempt; a nil ledger (when
	// disabled) is a no-op on every method.
	var led *obs.Ledger
	if opts.LedgerLimit >= 0 {
		led = obs.NewLedger(opts.LedgerLimit)
	}
	// Reused per-node power captures bracketing each apply; their diff is
	// the per-node attribution of the realized gain.
	var perNodeBefore, perNodeAfter []float64

	// Safety net: the input clone is trivially the last netlist known
	// equivalent to the input; periodic verification moves it forward.
	input := nl.Clone()
	lastGood := input
	defer func() {
		if r := recover(); r != nil {
			nl.RestoreFrom(lastGood)
			res.Stopped = StopPanic
			res.Runtime = time.Since(start)
			res.Phases = ph.Snapshot()
			res.Ledger = led.Summary()
			stampActivity(res.Ledger, opts.Activity)
			// Best-effort final numbers for the restored netlist; a
			// second panic here must not mask the restore.
			func() {
				defer func() { _ = recover() }()
				res.Final = power.Estimate(nl, opts.Power).Snapshot()
				res.FinalDelay = sta.NewObserved(nl, 0, opts.InputDrive, nil).Delay()
			}()
			err = fmt.Errorf("core: recovered panic in optimization: %v (netlist restored to last verified snapshot)", r)
		}
	}()

	_, estSpan := trace.StartSpan(ctx, "power-estimate")
	stop := ph.Start("power-estimate")
	pm := power.Estimate(nl, opts.Power)
	res.Initial = pm.Snapshot()
	stop()
	estSpan.End()
	_, staSpan := trace.StartSpan(ctx, "delay-analysis")
	stop = ph.Start("delay-analysis")
	res.InitialDelay = sta.NewObserved(nl, 0, opts.InputDrive, o).Delay()
	stop()
	staSpan.End()

	constraint := opts.DelayConstraint
	if opts.DelayFactor > 0 {
		constraint = res.InitialDelay * opts.DelayFactor
	}
	res.Constraint = constraint

	reportProgress := func(done bool) {
		if opts.Progress == nil {
			return
		}
		opts.Progress(Progress{
			Applied:      res.Applied,
			Harvests:     res.Harvests,
			Candidates:   res.Candidates,
			InitialPower: res.Initial.Power,
			Power:        pm.Total(),
			Done:         done,
		})
	}
	reportProgress(false)

	checker := atpg.NewChecker(nl)
	checker.Obs = o
	checker.Ctx = ctx
	if opts.CheckBudget > 0 {
		checker.Budget = opts.CheckBudget
	}

	// stopRequested reports (and records) context expiry; every loop
	// boundary consults it so cancellation never interrupts an edit.
	stopRequested := func() bool {
		if ctx.Err() == nil {
			return false
		}
		if res.Stopped == StopCompleted {
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				res.Stopped = StopDeadline
			} else {
				res.Stopped = StopCancelled
			}
			o.Emit("stopped", obs.Fields{"reason": string(res.Stopped), "applied": res.Applied})
		}
		return true
	}

	// reject discards a selected candidate: reason counters, a ledger
	// provenance entry (with the proof record when the candidate reached
	// the checker), and a structured event.
	reject := func(reason string, s *transform.Substitution, proof *obs.LedgerProof) {
		res.Rejects[reason]++
		o.Counter("core.rejects." + reason).Inc()
		if s != nil && led != nil {
			led.Record(obs.LedgerAttempt{
				Kind:          s.Kind.String(),
				Target:        s.TargetString(),
				Source:        s.SourceString(),
				PredictedGain: s.Gain(),
				Outcome:       obs.LedgerRejected,
				Reason:        reason,
				Proof:         proof,
			})
			o.Counter("core.ledger.attempts").Inc()
		}
		if o.Tracing() {
			f := obs.Fields{"reason": reason}
			if s != nil {
				f["kind"] = s.Kind.String()
				f["sub"] = s.String()
			}
			o.Emit("reject", f)
		}
	}

	retriesLeft := opts.MaxRetries
	hooks := opts.Inject
	verifyErr := error(nil)

	an := transform.NewAnalyzer(nl, pm)
	exhausted := false
	for !exhausted && !stopRequested() {
		_, harvSpan := trace.StartSpan(ctx, "harvest")
		stop = ph.Start("harvest")
		cands := transform.Generate(nl, pm, opts.Transform)
		stop()
		res.Harvests++
		res.Candidates += len(cands)
		harvSpan.SetAttr("harvest", res.Harvests)
		harvSpan.SetAttr("candidates", len(cands))
		if len(cands) == 0 {
			harvSpan.End()
			break
		}
		stop = ph.Start("ab-analysis")
		for _, s := range cands {
			an.AnalyzeAB(s)
		}
		stop()
		harvSpan.End()

		var timing *sta.Analysis
		if constraint > 0 {
			stop = ph.Start("delay-analysis")
			timing = sta.NewObserved(nl, constraint, opts.InputDrive, o)
			stop()
		}

		progress := false
		for repeat := opts.Repeat; repeat > 0 && len(cands) > 0; {
			if stopRequested() {
				exhausted = true
				break
			}
			// Pre-selection: the best PG_A+PG_B candidates (cheap), then
			// PG_C reestimation only for those (paper Section 3.5).
			k := opts.PreselectK
			if opts.DisablePreselect || k > len(cands) {
				k = len(cands)
			}
			stop = ph.Start("preselect")
			partialSelectByGainAB(cands, k)
			stop()
			var best *transform.Substitution
			bestIdx := -1
			for i := 0; i < k; i++ {
				s := cands[i]
				stop = ph.Start("preselect")
				valid := candidateValid(nl, s)
				stop()
				if !valid {
					continue
				}
				stop = ph.Start("pgc-reestimate")
				an.AnalyzeC(s)
				stop()
				if best == nil || s.Gain() > best.Gain() {
					best, bestIdx = s, i
				}
			}
			if best == nil || best.Gain() <= opts.MinGain {
				// No power-reducing substitution in this harvest; a fresh
				// harvest (outer loop) may still find some after the
				// structural changes, and the outer loop terminates once a
				// whole harvest makes no progress.
				if best != nil {
					reject(RejectLowGain, best, nil)
				}
				break
			}
			// Drop the candidate from the pool whatever happens next.
			cands = append(cands[:bestIdx], cands[bestIdx+1:]...)

			// One span per selected candidate; the proof (with its SAT
			// solves and escalation steps) and the apply nest under it.
			// endCandidate stamps the outcome and detaches the checker
			// from the candidate's span context.
			cctx, cSpan := trace.StartSpan(ctx, "candidate")
			cSpan.SetAttr("kind", best.Kind.String())
			cSpan.SetAttr("sub", best.String())
			cSpan.SetAttr("gain", best.Gain())
			endCandidate := func(outcome string) {
				cSpan.SetAttr("outcome", outcome)
				cSpan.End()
				checker.Ctx = ctx
			}

			if timing != nil {
				stop = ph.Start("delay-check")
				ok := transform.DelayOK(nl, best, timing)
				stop()
				if !ok {
					reject(RejectDelay, best, nil)
					endCandidate(RejectDelay)
					continue // increases_delay -> discard, pick the next best
				}
			}
			checker.Ctx = cctx
			stop = ph.Start("atpg-check")
			verdict := checkCandidate(checker, best)
			stop()
			d := checker.LastCheck
			proof := &obs.LedgerProof{
				Conflicts: d.Conflicts,
				Decisions: d.Decisions,
				Seconds:   d.Seconds,
				Budget:    d.Budget,
			}
			if hooks != nil && hooks.ForceAbort != nil && hooks.ForceAbort(checker.Stats.Checks) {
				verdict = atpg.Aborted
			}
			if verdict == atpg.Aborted && retriesLeft > 0 && ctx.Err() == nil {
				verdict = escalate(cctx, checker, best, hooks, &retriesLeft, res, ph, o, proof)
			}
			proof.Verdict = verdict.String()
			if verdict != atpg.Permissible {
				if verdict == atpg.Aborted {
					reject(RejectAborted, best, proof)
					endCandidate(RejectAborted)
				} else {
					reject(RejectRefuted, best, proof)
					endCandidate(RejectRefuted)
				}
				continue
			}

			if hooks != nil && hooks.Panic != nil && hooks.Panic(res.Applied) {
				panic(fmt.Sprintf("faultinject: injected panic after %d substitutions", res.Applied))
			}

			// Transactional apply: snapshot the primary-output signatures,
			// apply inside an edit transaction, then re-validate the
			// structural invariants and re-simulate the signatures. Any
			// damage — a buggy transform, an injected corruption, a panic
			// in the apply path — rolls the transaction back and the run
			// continues with the next candidate.
			// Bracket the apply with power captures: their difference is the
			// realized gain, and the per-node diff is its attribution over
			// the touched cone. Simulation is deterministic, so the realized
			// gains of the applied moves telescope exactly to the headline
			// Initial.Power - Final.Power (rollbacks restore prior values).
			var pBefore float64
			if led != nil {
				pBefore = pm.Total()
				perNodeBefore = pm.PerNode(perNodeBefore)
			}
			preSig := poSignatures(pm, nl)
			_, aSpan := trace.StartSpan(cctx, "apply")
			txn := nl.Begin()
			stop = ph.Start("apply")
			_, applyErr := transform.ApplySafe(nl, best)
			stop()
			reason := RejectApplyConflict
			if applyErr == nil && hooks != nil && hooks.CorruptApply != nil {
				if cerr := hooks.CorruptApply(nl, res.Applied); cerr != nil {
					applyErr = cerr
					reason = RejectRollback
				}
			}
			if applyErr == nil {
				stop = ph.Start("validate")
				if verr := nl.Validate(); verr != nil {
					applyErr = verr
					reason = RejectRollback
				}
				stop()
			}
			if applyErr == nil {
				stop = ph.Start("power-resync")
				pm.Resync()
				stop()
				if !sameSignatures(preSig, poSignatures(pm, nl)) {
					applyErr = fmt.Errorf("core: primary-output signatures changed after apply of %v", best)
					reason = RejectRollback
				}
			}
			if applyErr != nil {
				txn.Rollback()
				aSpan.SetAttr("outcome", reason)
				aSpan.End()
				stop = ph.Start("power-resync")
				pm.Resync()
				stop()
				reject(reason, best, proof)
				if o.Tracing() {
					o.Emit("rollback", obs.Fields{"sub": best.String(), "error": applyErr.Error()})
				}
				endCandidate(reason)
				continue
			}
			txn.Commit()
			aSpan.SetAttr("outcome", "applied")
			aSpan.End()
			if led != nil {
				pAfter := pm.Total()
				perNodeAfter = pm.PerNode(perNodeAfter)
				led.Record(obs.LedgerAttempt{
					Kind:          best.Kind.String(),
					Target:        best.TargetString(),
					Source:        best.SourceString(),
					PredictedGain: best.Gain(),
					Outcome:       obs.LedgerApplied,
					Proof:         proof,
					PowerBefore:   pBefore,
					PowerAfter:    pAfter,
					RealizedGain:  pBefore - pAfter,
					Cone:          coneDeltas(nl, perNodeBefore, perNodeAfter),
				})
				o.Counter("core.ledger.attempts").Inc()
				o.Counter("core.ledger.applied").Inc()
				o.Histogram("core.ledger.realized_gain").Observe(pBefore - pAfter)
			}
			if timing != nil {
				stop = ph.Start("delay-analysis")
				timing = sta.NewObserved(nl, constraint, opts.InputDrive, o)
				stop()
			}
			cs := res.ByClass[best.Kind]
			cs.Count++
			cs.PowerGain += best.Gain()
			cs.AreaDelta += best.AreaDelta
			res.Applied++
			progress = true
			repeat--
			o.Counter("core.applied").Inc()
			o.Histogram("core.apply.gain").Observe(best.Gain())
			if o.Tracing() {
				o.Emit("apply", obs.Fields{
					"sub":        best.String(),
					"kind":       best.Kind.String(),
					"gain":       best.Gain(),
					"area_delta": best.AreaDelta,
					"applied":    res.Applied,
				})
			}
			endCandidate("applied")
			reportProgress(false)
			if opts.MaxSubstitutions > 0 && res.Applied >= opts.MaxSubstitutions {
				res.Stopped = StopMaxSubs
				exhausted = true
				break
			}
			// Safety-net refresh: periodically re-prove the current netlist
			// equivalent to the input and advance the last-good snapshot.
			// Runs after the substitution-cap check so a run that just hit
			// its cap does not pay for a proof whose snapshot is never used.
			if opts.VerifyEvery > 0 && res.Applied%opts.VerifyEvery == 0 && ctx.Err() == nil {
				svctx, svSpan := trace.StartSpan(ctx, "safety-verify")
				stop = ph.Start("safety-verify")
				eq, eqErr := atpg.EquivalentCtx(svctx, input, nl, 0)
				stop()
				svSpan.End()
				switch {
				case eqErr == nil && eq.Verdict == atpg.Permissible:
					lastGood = nl.Clone()
					res.SafetyRefreshes++
					o.Counter("core.safety.refresh").Inc()
				case eqErr == nil && eq.Verdict == atpg.NotPermissible:
					// Every substitution was individually proven, so this
					// means a checker or apply bug slipped through all other
					// nets. Restore the last verified state and stop.
					nl.RestoreFrom(lastGood)
					pm.Resync()
					verifyErr = fmt.Errorf("core: periodic verification refuted equivalence on output %q; restored last verified snapshot", eq.DifferingOutput)
					exhausted = true
				}
				// An aborted verification keeps the previous snapshot.
				if exhausted {
					break
				}
			}
			// Stale AB gains are refreshed for the surviving candidates;
			// this keeps the pre-selection meaningful within the repeat
			// window without a full re-harvest.
			stop = ph.Start("ab-analysis")
			kept := cands[:0]
			for _, s := range cands {
				if candidateValid(nl, s) {
					an.AnalyzeAB(s)
					kept = append(kept, s)
				} else {
					res.Rejects[RejectStale]++
					o.Counter("core.rejects." + RejectStale).Inc()
					led.CountReject(RejectStale)
				}
			}
			cands = kept
			stop()
		}
		if !progress {
			break
		}
	}

	_, finSpan := trace.StartSpan(ctx, "power-estimate")
	stop = ph.Start("power-estimate")
	res.Final = pm.Snapshot()
	stop()
	finSpan.End()
	_, finStaSpan := trace.StartSpan(ctx, "delay-analysis")
	stop = ph.Start("delay-analysis")
	res.FinalDelay = sta.NewObserved(nl, 0, opts.InputDrive, o).Delay()
	stop()
	finStaSpan.End()
	res.CheckStats = checker.Stats
	stop = ph.Start("validate")
	vErr := nl.Validate()
	stop()
	res.Runtime = time.Since(start)
	res.Phases = ph.Snapshot()
	res.Ledger = led.Summary()
	stampActivity(res.Ledger, opts.Activity)
	reportProgress(true)
	if o.Tracing() {
		o.Emit("optimize-done", obs.Fields{
			"applied":         res.Applied,
			"harvests":        res.Harvests,
			"candidates":      res.Candidates,
			"power_initial":   res.Initial.Power,
			"power_final":     res.Final.Power,
			"reduction_pct":   res.PowerReductionPct(),
			"runtime_seconds": res.Runtime.Seconds(),
			"stopped":         string(res.Stopped),
			"rollbacks":       res.Rejects[RejectRollback],
			"escalations":     res.Escalation.Retries,
		})
	}
	if verifyErr != nil {
		return res, verifyErr
	}
	if vErr != nil {
		// Unreachable with the transactional apply in place, but if the
		// invariants are somehow broken, hand back the last verified
		// snapshot rather than a corrupt netlist.
		nl.RestoreFrom(lastGood)
		return res, fmt.Errorf("core: netlist invalid after optimization: %v (restored last verified snapshot)", vErr)
	}
	return res, nil
}

// escalate retries an aborted proof with geometrically escalated SAT
// budgets (×escalationFactor per step, escalationSteps max) while the
// per-run retry quota lasts, returning the final verdict and recording
// the escalation statistics. proof, when non-nil, accumulates the SAT
// effort of every retry for the run ledger.
func escalate(ctx context.Context, checker *atpg.Checker, s *transform.Substitution,
	hooks *faultinject.Hooks, retriesLeft *int, res *Result, ph *obs.PhaseSet, o *obs.Observer,
	proof *obs.LedgerProof) atpg.Verdict {
	base := checker.Budget
	defer func() { checker.Budget = base }()
	budget := base
	verdict := atpg.Aborted
	for step := 0; step < escalationSteps && verdict == atpg.Aborted && *retriesLeft > 0 && ctx.Err() == nil; step++ {
		budget *= escalationFactor
		*retriesLeft--
		res.Escalation.Retries++
		o.Counter("core.escalation.retries").Inc()
		checker.Budget = budget
		// Each retry gets its own child span so an escalation ladder is
		// visible as stacked re-proofs under the candidate.
		ectx, eSpan := trace.StartSpan(ctx, "escalate")
		eSpan.SetAttr("step", step+1)
		eSpan.SetAttr("budget", budget)
		checker.Ctx = ectx
		stop := ph.Start("atpg-check")
		verdict = checkCandidate(checker, s)
		stop()
		checker.Ctx = ctx
		if proof != nil {
			d := checker.LastCheck
			proof.Conflicts += d.Conflicts
			proof.Decisions += d.Decisions
			proof.Seconds += d.Seconds
			proof.Budget = d.Budget
			proof.Escalations++
		}
		if hooks != nil && hooks.ForceAbort != nil && hooks.ForceAbort(checker.Stats.Checks) {
			verdict = atpg.Aborted
		}
		eSpan.SetAttr("verdict", verdict.String())
		eSpan.End()
	}
	switch verdict {
	case atpg.Permissible:
		res.Escalation.Permissible++
		o.Counter("core.escalation.permissible").Inc()
	case atpg.NotPermissible:
		res.Escalation.Refuted++
		o.Counter("core.escalation.refuted").Inc()
	default:
		res.Escalation.Exhausted++
		o.Counter("core.escalation.exhausted").Inc()
	}
	if o.Tracing() {
		o.Emit("escalate", obs.Fields{
			"sub":          s.String(),
			"verdict":      verdict.String(),
			"budget":       budget,
			"retries_left": *retriesLeft,
		})
	}
	return verdict
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

// sameSignatures compares two signature captures.
func sameSignatures(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkCandidate runs the exact permissibility proof (the paper's
// check_candidate; an ATPG abort counts as not permissible).
func checkCandidate(c *atpg.Checker, s *transform.Substitution) atpg.Verdict {
	if s.IsBranchSub() {
		return c.CheckBranch(s.G, s.Pin, s.Src)
	}
	return c.CheckStem(s.A, s.Src)
}

// partialSelectByGainAB moves the k highest-GainAB candidates to the front
// (selection is O(k*n), cheaper than a full sort for small k).
func partialSelectByGainAB(cands []*transform.Substitution, k int) {
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].GainAB > cands[maxJ].GainAB {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
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

// stampActivity records the run's workload activity model on the ledger
// summary (nil-safe for disabled ledgers).
func stampActivity(s *obs.LedgerSummary, activity string) {
	if s != nil {
		s.Activity = activity
	}
}
