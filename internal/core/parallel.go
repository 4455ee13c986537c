package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"powder/internal/atpg"
	"powder/internal/faultinject"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/partition"
	"powder/internal/power"
	"powder/internal/sta"
	"powder/internal/transform"
)

// The parallel engine runs POWDER as bulk-synchronous rounds:
//
//	round:
//	  partition.Decompose(master, P)            // fanout regions
//	  per region, concurrently on a replica:    // master frozen
//	    harvest (TargetFilter = region) -> AB analysis -> preselect ->
//	    PG_C -> delay check -> incremental permissibility proof ->
//	    apply on the replica, emit a proposal
//	  serially on the master, regions in order:
//	    translate proposal IDs, detect conflicts (proof support set vs
//	    nodes touched by other regions), re-prove conflicted proposals,
//	    re-check delay, apply through the transactional journal
//
// Workers never touch the master netlist: each one clones it (Clone is a
// pure read), estimates its own power model (deterministic, so replica
// values equal the master's), and proves candidates on a per-round
// incremental SAT solver seeded with the shared refuted-miter cache.
//
// Soundness of the conflict rule: a proof's support set (the duplicated
// region plus the fanin closure of everything its miter encoded) contains
// every node whose function or connectivity the verdict depends on. Any
// commit that changes connectivity marks both endpoints of every changed
// edge as touched, so if no support node of a pending proposal is touched
// by another region, the miter the master would build now is isomorphic
// to the one the replica proved, and the verdict carries over. Proposals
// from the same region skip their own region's touches — the replica
// already reflects them — but once one proposal of a region fails to
// commit, the region's chain is broken and every later proposal of that
// region is re-proved.
//
// Determinism: regions commit in region order and proposals in proposal
// order, and decomposition, replica construction, harvesting, and
// selection are all deterministic, so a fixed -par P produces a
// deterministic result up to proof-budget boundary effects (a shared
// cache hit can change how much learning a later borderline proof starts
// with). -par 1 bypasses this engine entirely and is byte-identical to
// the sequential implementation.

// proposal is one region-proven substitution awaiting serial commit. All
// node IDs are in the proposing replica's space, which coincides with the
// master's for nodes that existed at round start; nodes the replica added
// are translated through the region's commit ID map.
type proposal struct {
	sub     *transform.Substitution
	proof   *obs.LedgerProof
	support []netlist.NodeID
	added   []netlist.NodeID // replica IDs of the nodes the replica apply added
}

// workerReport is one region worker's round output, merged into the run
// result on the main goroutine after the round barrier.
type workerReport struct {
	region     int
	proposals  []proposal
	candidates int
	rejects    map[string]int
	stats      atpg.CheckStats
	escal      EscalationStats
	err        error // recovered worker panic
	// start/end bound the worker's busy interval; the master derives
	// utilization, barrier skew, and the retroactive barrier-wait spans
	// from them after the round barrier.
	start, end time.Time
}

// touchMark records which region first touched a node this round; shared
// is set when a second region touches it, after which any support hit
// conflicts regardless of region.
type touchMark struct {
	region int
	shared bool
}

// parRun bundles the run-wide state the round loop and the workers share.
type parRun struct {
	nl         *netlist.Netlist
	opts       *Options
	constraint float64
	sig        *atpg.SigCache
	o          *obs.Observer
	ph         *obs.PhaseSet
	hooks      *faultinject.Hooks
	led        *obs.Ledger
	conf       *obs.ConflictLedger
}

// workerTrack names a region worker's timeline lane; the master's
// commit work renders on masterTrack. Perfetto shows one row per lane.
func workerTrack(region int) string { return fmt.Sprintf("worker-%d", region) }

const masterTrack = "master"

// optimizeParallel is the Parallelism > 1 engine behind OptimizeCtx; see
// the package comment above for the round structure. It mirrors the
// sequential engine's robustness contract: transactional applies with
// rollback on damage, periodic safety-net verification, prompt stops on
// cancellation, and panic recovery restoring the last verified snapshot.
func optimizeParallel(ctx context.Context, nl *netlist.Netlist, opts Options) (res *Result, err error) {
	o := opts.observer()
	opts.Power.Obs = o
	opts.Transform.Obs = o
	ph := obs.NewPhaseSet()
	start := time.Now()

	ctx, optSpan := trace.StartSpan(ctx, "optimize")
	optSpan.SetAttr("circuit", nl.Name)
	optSpan.SetAttr("parallelism", opts.Parallelism)
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
		Rejects:  map[string]int{},
		Stopped:  StopCompleted,
		Parallel: &ParallelStats{Workers: opts.Parallelism},
	}
	par := res.Parallel

	var led *obs.Ledger
	if opts.LedgerLimit >= 0 {
		led = obs.NewLedger(opts.LedgerLimit)
	}
	var perNodeBefore, perNodeAfter []float64

	input := nl.Clone()
	lastGood := input
	defer func() {
		if r := recover(); r != nil {
			nl.RestoreFrom(lastGood)
			res.Stopped = StopPanic
			res.Runtime = time.Since(start)
			res.Phases = ph.Snapshot()
			res.Ledger = led.Summary()
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

	pr := &parRun{
		nl:         nl,
		opts:       &opts,
		constraint: constraint,
		sig:        atpg.NewSigCache(),
		o:          o,
		ph:         ph,
		hooks:      opts.Inject,
		led:        led,
		conf:       obs.NewConflictLedger(0),
	}

	// The master checker serves commit-time re-proofs; it reads the
	// netlist at proof time, so one instance covers the whole run.
	checker := atpg.NewChecker(nl)
	checker.Obs = o
	checker.Ctx = ctx
	if opts.CheckBudget > 0 {
		checker.Budget = opts.CheckBudget
	}

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

	reject := func(reason string, region int, s *transform.Substitution, proof *obs.LedgerProof) {
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
				Region:        region + 1,
			})
			o.Counter("core.ledger.attempts").Inc()
		}
		if o.Tracing() {
			f := obs.Fields{"reason": reason, "region": region}
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

	var timing *sta.Analysis
	refreshTiming := func() {
		if constraint <= 0 {
			return
		}
		stop := ph.Start("delay-analysis")
		timing = sta.NewObserved(nl, constraint, opts.InputDrive, o)
		stop()
	}
	refreshTiming()

	exhausted := false
	round := 0
	for !exhausted && !stopRequested() {
		round++
		par.Rounds++
		o.Counter("core.par.rounds").Inc()
		baseNodes := netlist.NodeID(nl.NumNodes())
		d := partition.Decompose(nl, opts.Parallelism)
		par.Regions += len(d.Regions)
		rctx, rSpan := trace.StartSpan(ctx, "round")
		rSpan.SetAttr("round", round)
		rSpan.SetAttr("regions", len(d.Regions))

		// Parallel phase: the master is frozen while the region workers
		// harvest and prove on their replicas.
		stop = ph.Start("par-workers")
		parStart := time.Now()
		reports := make([]*workerReport, len(d.Regions))
		var wg sync.WaitGroup
		for i := range d.Regions {
			wg.Add(1)
			go func(region int) {
				defer wg.Done()
				reports[region] = pr.runRegion(rctx, d, region)
			}(i)
		}
		wg.Wait()
		barrier := time.Now()
		stop()

		// Scheduler metrics for the round: per-worker busy time against
		// the capacity the round offered, the spread between the first
		// and last worker to reach the barrier, and — on traced runs —
		// a retroactive barrier-wait span closing out each worker's lane.
		parWall := barrier.Sub(parStart).Seconds()
		tr := trace.FromContext(rctx)
		var roundBusy float64
		var firstEnd, lastEnd time.Time
		for _, rep := range reports {
			if rep == nil || rep.end.IsZero() {
				continue
			}
			roundBusy += rep.end.Sub(rep.start).Seconds()
			if firstEnd.IsZero() || rep.end.Before(firstEnd) {
				firstEnd = rep.end
			}
			if rep.end.After(lastEnd) {
				lastEnd = rep.end
			}
			if tr != nil && barrier.After(rep.end) {
				tr.Log("barrier-wait", workerTrack(rep.region), rSpan.ID(), rep.end, barrier,
					map[string]any{"region": rep.region})
			}
		}
		skew := 0.0
		if !firstEnd.IsZero() {
			skew = lastEnd.Sub(firstEnd).Seconds()
		}
		par.WorkerBusySeconds += roundBusy
		par.ParallelSeconds += parWall
		if skew > par.MaxBarrierSkewSeconds {
			par.MaxBarrierSkewSeconds = skew
		}
		if parWall > 0 {
			o.Histogram("core.par.worker.busy_frac").Observe(roundBusy / (float64(opts.Parallelism) * parWall))
			o.Histogram("core.par.barrier.skew.seconds").Observe(skew)
		}

		res.Harvests++
		roundCandidates, roundProposals := 0, 0
		for _, rep := range reports {
			if rep == nil {
				continue
			}
			if rep.err != nil {
				// The worker only ever touched its replica, so the master
				// is intact; drop the region's round and continue.
				o.Counter("core.par.worker_panics").Inc()
				o.Emit("worker-panic", obs.Fields{"region": rep.region, "error": rep.err.Error()})
				continue
			}
			roundCandidates += rep.candidates
			roundProposals += len(rep.proposals)
			for reason, n := range rep.rejects {
				res.Rejects[reason] += n
			}
			addCheckStats(&res.CheckStats, rep.stats)
			res.Escalation.Retries += rep.escal.Retries
			res.Escalation.Permissible += rep.escal.Permissible
			res.Escalation.Refuted += rep.escal.Refuted
			res.Escalation.Exhausted += rep.escal.Exhausted
		}
		res.Candidates += roundCandidates
		par.Proposals += roundProposals
		rSpan.SetAttr("candidates", roundCandidates)
		rSpan.SetAttr("proposals", roundProposals)
		if roundCandidates == 0 {
			rSpan.End()
			break
		}

		// Serial commit phase, rendered on the master lane: conflict
		// checks, re-proofs, and applies all inherit the track.
		cctx, commitSpan := trace.StartSpan(rctx, "commit")
		commitSpan.SetTrack(masterTrack)
		commitStart := time.Now()
		stop = ph.Start("par-commit")
		touched := make(map[netlist.NodeID]touchMark)
		progress := false
		for _, rep := range reports {
			if rep == nil || rep.err != nil || exhausted {
				continue
			}
			region := rep.region
			idMap := make(map[netlist.NodeID]netlist.NodeID)
			mapID := func(id netlist.NodeID) (netlist.NodeID, bool) {
				if id < baseNodes {
					return id, true
				}
				m, ok := idMap[id]
				return m, ok
			}
			broken := false
			for _, p := range rep.proposals {
				if stopRequested() {
					exhausted = true
					break
				}
				ms, mapOK := mapSub(p.sub, mapID)
				if !mapOK || !candidateValid(nl, ms) {
					reject(RejectStale, region, p.sub, p.proof)
					broken = true
					continue
				}

				// Conflict detection with attribution: the first offending
				// support node names the heatmap cell — which pair of
				// regions collided, over what, and how.
				conflicted := broken
				conflictKind := ""
				if broken {
					conflictKind = "broken-chain"
					pr.recordConflict(region, region, ms.TargetString(), conflictKind)
				} else {
					for _, sid := range p.support {
						m, ok := mapID(sid)
						if !ok {
							conflicted = true
							conflictKind = "stale"
							pr.recordConflict(region, -1, ms.TargetString(), conflictKind)
							break
						}
						if t, hit := touched[m]; hit && (t.shared || t.region != region) {
							conflicted = true
							conflictKind = "touched"
							if t.shared {
								conflictKind = "shared"
							}
							pr.recordConflict(region, t.region, nl.Node(m).Name(), conflictKind)
							break
						}
					}
				}

				pctx, pSpan := trace.StartSpan(cctx, "candidate")
				pSpan.SetAttr("kind", ms.Kind.String())
				pSpan.SetAttr("sub", ms.String())
				pSpan.SetAttr("gain", ms.Gain())
				pSpan.SetAttr("region", region)
				endCandidate := func(outcome string) {
					pSpan.SetAttr("outcome", outcome)
					pSpan.End()
					checker.Ctx = ctx
				}

				proof := p.proof
				if conflicted {
					par.Conflicts++
					o.Counter("core.par.conflicts").Inc()
					pSpan.SetAttr("conflict", true)
					pSpan.SetAttr("conflict_kind", conflictKind)
					// Serial re-proof against the actual master state.
					par.Replays++
					o.Counter("core.par.replays").Inc()
					rpctx, rpSpan := trace.StartSpan(pctx, "re-proof")
					checker.Ctx = rpctx
					stop2 := ph.Start("atpg-check")
					verdict := checkCandidate(checker, ms)
					stop2()
					rpSpan.SetAttr("verdict", verdict.String())
					rpSpan.End()
					dt := checker.LastCheck
					proof = &obs.LedgerProof{
						Conflicts: dt.Conflicts,
						Decisions: dt.Decisions,
						Seconds:   dt.Seconds,
						Budget:    dt.Budget,
					}
					if hooks != nil && hooks.ForceAbort != nil && hooks.ForceAbort(checker.Stats.Checks) {
						verdict = atpg.Aborted
					}
					if verdict == atpg.Aborted && retriesLeft > 0 && ctx.Err() == nil {
						verdict = escalate(pctx, checker, ms, hooks, &retriesLeft, res, ph, o, proof)
					}
					proof.Verdict = verdict.String()
					if verdict != atpg.Permissible {
						reason := RejectRefuted
						if verdict == atpg.Aborted {
							reason = RejectAborted
						}
						reject(reason, region, ms, proof)
						endCandidate(reason)
						broken = true
						continue
					}
				}

				if timing != nil {
					stop2 := ph.Start("delay-check")
					ok := transform.DelayOK(nl, ms, timing)
					stop2()
					if !ok {
						reject(RejectDelay, region, ms, proof)
						endCandidate(RejectDelay)
						broken = true
						continue
					}
				}

				if hooks != nil && hooks.Panic != nil && hooks.Panic(res.Applied) {
					panic(fmt.Sprintf("faultinject: injected panic after %d substitutions", res.Applied))
				}

				// Transactional apply, identical to the sequential engine:
				// PO-signature capture, journal, post-apply validation and
				// re-simulation, rollback on damage.
				var pBefore float64
				if led != nil {
					pBefore = pm.Total()
					perNodeBefore = pm.PerNode(perNodeBefore)
				}
				preTouched := preApplyTouched(nl, ms)
				preSig := poSignatures(pm, nl)
				_, aSpan := trace.StartSpan(pctx, "apply")
				txn := nl.Begin()
				stop2 := ph.Start("apply")
				applyRes, applyErr := transform.ApplySafe(nl, ms)
				stop2()
				reason := RejectApplyConflict
				if applyErr == nil && hooks != nil && hooks.CorruptApply != nil {
					if cerr := hooks.CorruptApply(nl, res.Applied); cerr != nil {
						applyErr = cerr
						reason = RejectRollback
					}
				}
				if applyErr == nil {
					stop2 = ph.Start("validate")
					if verr := nl.Validate(); verr != nil {
						applyErr = verr
						reason = RejectRollback
					}
					stop2()
				}
				if applyErr == nil {
					stop2 = ph.Start("power-resync")
					pm.Resync()
					stop2()
					if !sameSignatures(preSig, poSignatures(pm, nl)) {
						applyErr = fmt.Errorf("core: primary-output signatures changed after apply of %v", ms)
						reason = RejectRollback
					}
				}
				if applyErr != nil {
					txn.Rollback()
					aSpan.SetAttr("outcome", reason)
					aSpan.End()
					stop2 = ph.Start("power-resync")
					pm.Resync()
					stop2()
					reject(reason, region, ms, proof)
					if o.Tracing() {
						o.Emit("rollback", obs.Fields{"sub": ms.String(), "error": applyErr.Error(), "region": region})
					}
					endCandidate(reason)
					broken = true
					continue
				}
				txn.Commit()
				aSpan.SetAttr("outcome", "applied")
				aSpan.End()

				// Extend the region's ID map with the nodes this apply
				// created; the master allocates them in the same order as
				// the replica did.
				if len(applyRes.Added) != len(p.added) {
					broken = true
				} else {
					for i, replicaID := range p.added {
						idMap[replicaID] = applyRes.Added[i]
					}
				}
				markTouched(touched, region, preTouched)
				markTouched(touched, region, postApplyTouched(nl, applyRes))

				if led != nil {
					pAfter := pm.Total()
					perNodeAfter = pm.PerNode(perNodeAfter)
					led.Record(obs.LedgerAttempt{
						Kind:          ms.Kind.String(),
						Target:        ms.TargetString(),
						Source:        ms.SourceString(),
						PredictedGain: ms.Gain(),
						Outcome:       obs.LedgerApplied,
						Proof:         proof,
						PowerBefore:   pBefore,
						PowerAfter:    pAfter,
						RealizedGain:  pBefore - pAfter,
						Cone:          coneDeltas(nl, perNodeBefore, perNodeAfter),
						Region:        region + 1,
					})
					o.Counter("core.ledger.attempts").Inc()
					o.Counter("core.ledger.applied").Inc()
					o.Histogram("core.ledger.realized_gain").Observe(pBefore - pAfter)
				}
				refreshTiming()
				cs := res.ByClass[ms.Kind]
				cs.Count++
				cs.PowerGain += ms.Gain()
				cs.AreaDelta += ms.AreaDelta
				res.Applied++
				progress = true
				o.Counter("core.applied").Inc()
				o.Histogram("core.apply.gain").Observe(ms.Gain())
				if o.Tracing() {
					o.Emit("apply", obs.Fields{
						"sub":        ms.String(),
						"kind":       ms.Kind.String(),
						"gain":       ms.Gain(),
						"area_delta": ms.AreaDelta,
						"applied":    res.Applied,
						"region":     region,
					})
				}
				endCandidate("applied")
				reportProgress(false)
				if opts.MaxSubstitutions > 0 && res.Applied >= opts.MaxSubstitutions {
					res.Stopped = StopMaxSubs
					exhausted = true
					break
				}
				if opts.VerifyEvery > 0 && res.Applied%opts.VerifyEvery == 0 && ctx.Err() == nil {
					svctx, svSpan := trace.StartSpan(ctx, "safety-verify")
					stop2 = ph.Start("safety-verify")
					eq, eqErr := atpg.EquivalentCtx(svctx, input, nl, 0)
					stop2()
					svSpan.End()
					switch {
					case eqErr == nil && eq.Verdict == atpg.Permissible:
						lastGood = nl.Clone()
						res.SafetyRefreshes++
						o.Counter("core.safety.refresh").Inc()
					case eqErr == nil && eq.Verdict == atpg.NotPermissible:
						nl.RestoreFrom(lastGood)
						pm.Resync()
						verifyErr = fmt.Errorf("core: periodic verification refuted equivalence on output %q; restored last verified snapshot", eq.DifferingOutput)
						exhausted = true
					}
					if exhausted {
						break
					}
				}
			}
		}
		stop()
		commitSpan.End()
		rSpan.End()
		commitWall := time.Since(commitStart).Seconds()
		par.CommitSeconds += commitWall
		if parWall+commitWall > 0 {
			o.Histogram("core.par.commit.share").Observe(commitWall / (parWall + commitWall))
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
	addCheckStats(&res.CheckStats, checker.Stats)
	par.SigCacheHits, _, _ = pr.sig.Stats()
	if s := pr.conf.Summary(); s.Total > 0 {
		par.ConflictLedger = &s
	}
	o.Histogram("core.par.run.busy_frac").Observe(par.BusyFrac())
	o.Histogram("core.par.run.commit_share").Observe(par.CommitShare())
	stop = ph.Start("validate")
	vErr := nl.Validate()
	stop()
	res.Runtime = time.Since(start)
	res.Phases = ph.Snapshot()
	res.Ledger = led.Summary()
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
			"parallelism":     opts.Parallelism,
			"rounds":          par.Rounds,
			"conflicts":       par.Conflicts,
			"replays":         par.Replays,
			"sigcache_hits":   par.SigCacheHits,
		})
	}
	if verifyErr != nil {
		return res, verifyErr
	}
	if vErr != nil {
		nl.RestoreFrom(lastGood)
		return res, fmt.Errorf("core: netlist invalid after optimization: %v (restored last verified snapshot)", vErr)
	}
	return res, nil
}

// runRegion is one region worker's round: harvest, analyze, and prove on
// a private replica, returning the proposals for the commit phase. It
// never touches the master netlist; a panic is contained to the region.
func (pr *parRun) runRegion(ctx context.Context, d *partition.Decomposition, region int) (rep *workerReport) {
	rep = &workerReport{region: region, rejects: map[string]int{}, start: time.Now()}
	defer func() {
		if r := recover(); r != nil {
			rep.err = fmt.Errorf("region %d worker panic: %v", region, r)
			rep.proposals = nil
		}
	}()
	defer func() { rep.end = time.Now() }()
	wctx, wSpan := trace.StartSpan(ctx, "region")
	wSpan.SetTrack(workerTrack(region))
	wSpan.SetAttr("region", region)
	defer wSpan.End()

	opts := pr.opts
	o := pr.o

	// Replica construction: Clone preserves node IDs and the power
	// estimate is deterministic in (netlist, options), so replica node
	// values coincide with the master's.
	_, repSpan := trace.StartSpan(wctx, "replica")
	stop := pr.ph.Start("par-replica")
	replica := pr.nl.Clone()
	powerOpts := opts.Power
	powerOpts.Obs = nil
	rpm := power.Estimate(replica, powerOpts)
	stop()
	repSpan.End()

	an := transform.NewAnalyzer(replica, rpm)
	cfg := opts.Transform
	cfg.TargetFilter = func(id netlist.NodeID) bool { return d.RegionOf(id) == region }
	_, hSpan := trace.StartSpan(wctx, "harvest")
	stop = pr.ph.Start("harvest")
	cands := transform.Generate(replica, rpm, cfg)
	stop()
	hSpan.SetAttr("candidates", len(cands))
	hSpan.End()
	rep.candidates = len(cands)
	wSpan.SetAttr("candidates", len(cands))
	if len(cands) == 0 {
		return rep
	}
	stop = pr.ph.Start("ab-analysis")
	for _, s := range cands {
		an.AnalyzeAB(s)
	}
	stop()

	var timing *sta.Analysis
	if pr.constraint > 0 {
		stop = pr.ph.Start("delay-analysis")
		timing = sta.NewObserved(replica, pr.constraint, opts.InputDrive, nil)
		stop()
	}

	// The incremental checker requires a frozen netlist; it is rebuilt
	// after each replica apply (the shared signature cache and the lazy
	// base-cone encoding keep rebuilds cheap), and its learned clauses
	// serve the runs of consecutive rejections between applies.
	var checker *atpg.IncrementalChecker
	checkerVersion := int64(-1)
	getChecker := func() *atpg.IncrementalChecker {
		if checker == nil || replica.Version() != checkerVersion {
			if checker != nil {
				addCheckStats(&rep.stats, checker.Stats)
			}
			checker = atpg.NewIncrementalChecker(replica)
			checker.Obs = o
			checker.Ctx = wctx
			checker.Sig = pr.sig
			if opts.CheckBudget > 0 {
				checker.Budget = opts.CheckBudget
			}
			checkerVersion = replica.Version()
		}
		return checker
	}
	defer func() {
		if checker != nil {
			addCheckStats(&rep.stats, checker.Stats)
		}
	}()

	reject := func(reason string, s *transform.Substitution, proof *obs.LedgerProof) {
		rep.rejects[reason]++
		o.Counter("core.rejects." + reason).Inc()
		if s != nil && pr.led != nil {
			pr.led.Record(obs.LedgerAttempt{
				Kind:          s.Kind.String(),
				Target:        s.TargetString(),
				Source:        s.SourceString(),
				PredictedGain: s.Gain(),
				Outcome:       obs.LedgerRejected,
				Reason:        reason,
				Proof:         proof,
				Region:        region + 1,
			})
			o.Counter("core.ledger.attempts").Inc()
		}
		if o.Tracing() {
			f := obs.Fields{"reason": reason, "region": region}
			if s != nil {
				f["kind"] = s.Kind.String()
				f["sub"] = s.String()
			}
			o.Emit("reject", f)
		}
	}

	// Each worker gets an independent escalation quota: a shared counter
	// would make worker outcomes depend on scheduling order.
	retriesLeft := opts.MaxRetries

	for repeat := opts.Repeat; repeat > 0 && len(cands) > 0 && ctx.Err() == nil; {
		k := opts.PreselectK
		if opts.DisablePreselect || k > len(cands) {
			k = len(cands)
		}
		stop = pr.ph.Start("preselect")
		partialSelectByGainAB(cands, k)
		stop()
		var best *transform.Substitution
		bestIdx := -1
		for i := 0; i < k; i++ {
			s := cands[i]
			stop = pr.ph.Start("preselect")
			valid := candidateValid(replica, s)
			stop()
			if !valid {
				continue
			}
			stop = pr.ph.Start("pgc-reestimate")
			an.AnalyzeC(s)
			stop()
			if best == nil || s.Gain() > best.Gain() {
				best, bestIdx = s, i
			}
		}
		if best == nil || best.Gain() <= opts.MinGain {
			if best != nil {
				reject(RejectLowGain, best, nil)
			}
			break
		}
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)

		cctx, cSpan := trace.StartSpan(wctx, "candidate")
		cSpan.SetAttr("kind", best.Kind.String())
		cSpan.SetAttr("sub", best.String())
		cSpan.SetAttr("gain", best.Gain())
		cSpan.SetAttr("region", region)
		endCandidate := func(outcome string) {
			cSpan.SetAttr("outcome", outcome)
			cSpan.End()
		}

		if timing != nil {
			stop = pr.ph.Start("delay-check")
			ok := transform.DelayOK(replica, best, timing)
			stop()
			if !ok {
				reject(RejectDelay, best, nil)
				endCandidate(RejectDelay)
				continue
			}
		}

		c := getChecker()
		pvctx, pvSpan := trace.StartSpan(cctx, "prove")
		c.Ctx = pvctx
		stop = pr.ph.Start("atpg-check")
		verdict, support := checkCandidateInc(c, best)
		stop()
		pvSpan.SetAttr("verdict", verdict.String())
		pvSpan.End()
		c.Ctx = wctx
		dt := c.LastCheck
		proof := &obs.LedgerProof{
			Conflicts: dt.Conflicts,
			Decisions: dt.Decisions,
			Seconds:   dt.Seconds,
			Budget:    dt.Budget,
		}
		if pr.hooks != nil && pr.hooks.ForceAbort != nil && pr.hooks.ForceAbort(c.Stats.Checks) {
			verdict = atpg.Aborted
		}
		if verdict == atpg.Aborted && retriesLeft > 0 && ctx.Err() == nil {
			verdict, support = escalateInc(cctx, c, best, pr.hooks, &retriesLeft, &rep.escal, pr.ph, o, proof)
		}
		proof.Verdict = verdict.String()
		if verdict != atpg.Permissible {
			reason := RejectRefuted
			if verdict == atpg.Aborted {
				reason = RejectAborted
			}
			reject(reason, best, proof)
			endCandidate(reason)
			continue
		}

		// Apply on the replica so later proofs and gains in this region
		// see the updated structure; the master replays the same edit at
		// commit time under the transactional journal.
		stop = pr.ph.Start("apply")
		applyRes, applyErr := transform.ApplySafe(replica, best)
		stop()
		if applyErr != nil {
			reject(RejectApplyConflict, best, proof)
			endCandidate(RejectApplyConflict)
			continue
		}
		stop = pr.ph.Start("power-resync")
		rpm.Resync()
		stop()
		if timing != nil {
			stop = pr.ph.Start("delay-analysis")
			timing = sta.NewObserved(replica, pr.constraint, opts.InputDrive, nil)
			stop()
		}
		rep.proposals = append(rep.proposals, proposal{
			sub:     best,
			proof:   proof,
			support: support,
			added:   applyRes.Added,
		})
		endCandidate("proposed")
		repeat--

		stop = pr.ph.Start("ab-analysis")
		kept := cands[:0]
		for _, s := range cands {
			if candidateValid(replica, s) {
				an.AnalyzeAB(s)
				kept = append(kept, s)
			} else {
				rep.rejects[RejectStale]++
				o.Counter("core.rejects." + RejectStale).Inc()
				pr.led.CountReject(RejectStale)
			}
		}
		cands = kept
		stop()
	}
	wSpan.SetAttr("proposals", len(rep.proposals))
	return rep
}

// escalateInc is the worker-side budget-escalation ladder for the
// incremental checker, mirroring escalate() for the one-shot checker.
func escalateInc(ctx context.Context, c *atpg.IncrementalChecker, s *transform.Substitution,
	hooks *faultinject.Hooks, retriesLeft *int, es *EscalationStats, ph *obs.PhaseSet, o *obs.Observer,
	proof *obs.LedgerProof) (atpg.Verdict, []netlist.NodeID) {
	base := c.Budget
	defer func() { c.Budget = base }()
	budget := base
	verdict := atpg.Aborted
	var support []netlist.NodeID
	for step := 0; step < escalationSteps && verdict == atpg.Aborted && *retriesLeft > 0 && ctx.Err() == nil; step++ {
		budget *= escalationFactor
		*retriesLeft--
		es.Retries++
		o.Counter("core.escalation.retries").Inc()
		c.Budget = budget
		ectx, eSpan := trace.StartSpan(ctx, "escalate")
		eSpan.SetAttr("step", step+1)
		eSpan.SetAttr("budget", budget)
		c.Ctx = ectx
		stop := ph.Start("atpg-check")
		verdict, support = checkCandidateInc(c, s)
		stop()
		if proof != nil {
			dt := c.LastCheck
			proof.Conflicts += dt.Conflicts
			proof.Decisions += dt.Decisions
			proof.Seconds += dt.Seconds
			proof.Budget = dt.Budget
			proof.Escalations++
		}
		if hooks != nil && hooks.ForceAbort != nil && hooks.ForceAbort(c.Stats.Checks) {
			verdict = atpg.Aborted
		}
		eSpan.SetAttr("verdict", verdict.String())
		eSpan.End()
	}
	switch verdict {
	case atpg.Permissible:
		es.Permissible++
		o.Counter("core.escalation.permissible").Inc()
	case atpg.NotPermissible:
		es.Refuted++
		o.Counter("core.escalation.refuted").Inc()
	default:
		es.Exhausted++
		o.Counter("core.escalation.exhausted").Inc()
	}
	return verdict, support
}

// checkCandidateInc runs the incremental permissibility proof, returning
// the verdict and the proof's support set.
func checkCandidateInc(c *atpg.IncrementalChecker, s *transform.Substitution) (atpg.Verdict, []netlist.NodeID) {
	if s.IsBranchSub() {
		return c.CheckBranch(s.G, s.Pin, s.Src)
	}
	return c.CheckStem(s.A, s.Src)
}

// addCheckStats folds src into dst.
func addCheckStats(dst *atpg.CheckStats, src atpg.CheckStats) {
	dst.Checks += src.Checks
	dst.Permissible += src.Permissible
	dst.Refuted += src.Refuted
	dst.Aborted += src.Aborted
	dst.Conflicts += src.Conflicts
	dst.Decisions += src.Decisions
}

// mapSub translates a replica-space substitution into master IDs through
// the region's commit ID map. It fails when the substitution references a
// replica node the master never materialized (broken region chain).
func mapSub(s *transform.Substitution, mapID func(netlist.NodeID) (netlist.NodeID, bool)) (*transform.Substitution, bool) {
	ms := *s
	ok := true
	translate := func(id netlist.NodeID) netlist.NodeID {
		if id == netlist.InvalidNode {
			return id
		}
		m, found := mapID(id)
		if !found {
			ok = false
		}
		return m
	}
	ms.A = translate(ms.A)
	if ms.IsBranchSub() {
		ms.G = translate(ms.G)
	}
	ms.Src.B = translate(ms.Src.B)
	if ms.Src.IsThree() {
		ms.Src.C = translate(ms.Src.C)
	}
	if ms.Inv == transform.InvReuse {
		ms.InvNode = translate(ms.InvNode)
	}
	return &ms, ok
}

// preApplyTouched lists the master nodes whose connectivity the pending
// apply will change before the apply runs: the substituted stem, the
// gates of every detached branch, and the signals picking up the moved
// load.
func preApplyTouched(nl *netlist.Netlist, s *transform.Substitution) []netlist.NodeID {
	ids := []netlist.NodeID{s.A, s.Src.B}
	if s.Src.IsThree() {
		ids = append(ids, s.Src.C)
	}
	if s.Inv == transform.InvReuse {
		ids = append(ids, s.InvNode)
	}
	if s.IsBranchSub() {
		ids = append(ids, s.G)
	} else {
		for _, b := range nl.Node(s.A).Fanouts() {
			if !b.IsPO() {
				ids = append(ids, b.Gate)
			}
		}
	}
	return ids
}

// postApplyTouched lists the nodes the apply created or destroyed plus
// their neighbours: added nodes and their fanins, removed nodes and the
// fanins whose fanout lists shrank. Dead nodes keep their fanin lists, so
// this is computable after the sweep.
func postApplyTouched(nl *netlist.Netlist, res *transform.ApplyResult) []netlist.NodeID {
	ids := []netlist.NodeID{res.Source}
	for _, id := range res.Added {
		ids = append(ids, id)
		ids = append(ids, nl.Node(id).Fanins()...)
	}
	for _, id := range res.Removed {
		ids = append(ids, id)
		ids = append(ids, nl.Node(id).Fanins()...)
	}
	return ids
}

// recordConflict attributes one commit conflict: regions are the
// engine's 0-based indices (-1 = unknown other party), translated to
// the ledger's 1-based scheme (0 = master/unknown). Each conflict also
// feeds the labeled par.conflicts{kind} counter family.
func (pr *parRun) recordConflict(region, other int, node, kind string) {
	pr.conf.Record(region+1, other+1, node, kind)
	pr.o.Counter(obs.Labeled("par.conflicts", "kind", kind)).Inc()
}

// markTouched stamps ids as touched by region, upgrading to shared when a
// second region touches the same node.
func markTouched(t map[netlist.NodeID]touchMark, region int, ids []netlist.NodeID) {
	for _, id := range ids {
		if m, ok := t[id]; ok {
			if m.region != region {
				m.shared = true
				t[id] = m
			}
			continue
		}
		t[id] = touchMark{region: region}
	}
}
