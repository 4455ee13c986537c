package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"powder/internal/atpg"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/partition"
	"powder/internal/power"
	"powder/internal/sta"
	"powder/internal/transform"
)

// The region engine runs POWDER as bulk-synchronous rounds:
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
// values equal the master's), and proves candidates on an incremental SAT
// solver seeded with the shared refuted-miter cache.
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
// region is re-proved. Until another region has committed in the round
// and while the chain holds, the master is in exactly the state the
// replica proposed from, so no conflict can arise and the replica's delay
// check carries over.
//
// Determinism: regions commit in region order and proposals in proposal
// order, and decomposition, replica construction, harvesting, and
// selection are all deterministic, so a fixed -par P produces a
// deterministic result up to proof-budget boundary effects (a shared
// cache hit can change how much learning a later borderline proof starts
// with). With -par 1 the one region covers the whole netlist and its
// proposals commit unchanged, so a round is one harvest of the paper's
// greedy loop.

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

// rejection is a region worker's reject awaiting the commit phase. The
// commit phase records it (ledger entry, reject count) right after the
// region's first before proposals, so the ledger follows decision order.
// Its candidate span has already ended with the reason as its outcome.
type rejection struct {
	before int
	reason string
	sub    *transform.Substitution
	proof  *obs.LedgerProof
}

// workerReport is one region worker's round output, merged into the run
// result on the main goroutine after the round barrier.
type workerReport struct {
	region     int
	proposals  []proposal
	rejected   []rejection
	candidates int
	rejects    map[string]int // count-only rejects (stale refreshes)
	stats      atpg.CheckStats
	escal      EscalationStats
	retries    int   // the unspent part of the region's retry share
	err        error // recovered worker panic, re-raised by the round
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

// run is the state of one OptimizeCtx call. The round loop and the
// commit phase own it; region workers only read it, apart from the
// thread-safe ledger and signature cache.
type run struct {
	nl   *netlist.Netlist
	opts *Options
	// span is the run's root span; it holds the phase table.
	span *trace.Span
	led  *obs.Ledger
	sig  *atpg.SigCache
	conf *obs.ConflictLedger
	res  *Result
	// par accumulates the scheduling statistics; Result.Parallel points
	// at it only when Parallelism > 1.
	par *ParallelStats

	pm *power.Model
	// timing is the master's delay analysis, rebuilt on demand after the
	// netlist changes; nil until a commit needs a delay re-check.
	timing *sta.Analysis
	// prover serves commit-time re-proofs on the master netlist.
	prover *prover
	// retries is the unspent part of the run's MaxRetries quota.
	retries int
	// lastGood is the latest snapshot proven equivalent to input; a
	// recovered panic restores it.
	input, lastGood             *netlist.Netlist
	perNodeBefore, perNodeAfter []float64
	// done ends the run after the current commit: the substitution cap
	// or a refuted safety verification (verifyErr).
	done      bool
	verifyErr error
}

// workerTrack names a region worker's timeline lane; the master's
// commit work renders on masterTrack. Perfetto shows one row per lane.
func workerTrack(region int) string { return fmt.Sprintf("worker-%d", region) }

const masterTrack = "master"

// stopRequested reports (and records, once) context expiry; the round
// loop consults it between rounds and the commit phase before a
// re-proof, so a stop never interrupts an edit.
func (r *run) stopRequested(ctx context.Context) bool {
	if ctx.Err() == nil {
		return false
	}
	if r.res.Stopped == StopCompleted {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			r.res.Stopped = StopDeadline
		} else {
			r.res.Stopped = StopCancelled
		}
	}
	return true
}

// reportProgress delivers a run snapshot to Options.Progress.
func (r *run) reportProgress(done bool) {
	if r.opts.Progress == nil {
		return
	}
	r.opts.Progress(Progress{
		Applied:      r.res.Applied,
		Harvests:     r.res.Harvests,
		Candidates:   r.res.Candidates,
		InitialPower: r.res.Initial.Power,
		Power:        r.pm.Total(),
		Done:         done,
	})
}

// seal ends the run's root span, which carries the run summary, and
// stamps the closing results: wall time, the span self-time table, and
// the ledger totals under the run's activity model.
func (r *run) seal(start time.Time) {
	res, sp := r.res, r.span
	sp.SetAttr("applied", res.Applied)
	sp.SetAttr("harvests", res.Harvests)
	sp.SetAttr("candidates", res.Candidates)
	sp.SetAttr("stopped", string(res.Stopped))
	sp.SetAttr("power_initial", res.Initial.Power)
	sp.SetAttr("power_final", res.Final.Power)
	sp.SetAttr("reduction_pct", res.PowerReductionPct())
	sp.SetAttr("rollbacks", res.Rejects[RejectRollback])
	sp.SetAttr("escalations", res.Escalation.Retries)
	if par := res.Parallel; par != nil {
		sp.SetAttr("rounds", par.Rounds)
		sp.SetAttr("conflicts", par.Conflicts)
		sp.SetAttr("replays", par.Replays)
		sp.SetAttr("sigcache_hits", par.SigCacheHits)
	}
	sp.End()
	r.res.Runtime = time.Since(start)
	r.res.Phases = r.span.Phases()
	r.res.Ledger = r.led.Summary()
	if r.res.Ledger != nil {
		r.res.Ledger.Activity = r.opts.Activity
	}
}

// attempt is the ledger entry of a selected candidate before its
// outcome. Regions are labeled 1-based, and not at all on one-region
// runs.
func (r *run) attempt(s *transform.Substitution, region int, proof *obs.LedgerProof) obs.LedgerAttempt {
	a := obs.LedgerAttempt{
		Kind:          s.Kind.String(),
		Target:        s.TargetString(),
		Source:        s.SourceString(),
		PredictedGain: s.Gain(),
		Proof:         proof,
	}
	if r.res.Parallel != nil {
		a.Region = region + 1
	}
	return a
}

// startCandidate opens the span of one selected candidate. endCandidate
// closes it with its outcome: "applied", a reject reason, or "proposed"
// for a region worker's proven substitution, which the commit phase
// then decides under a candidate span of its own.
func startCandidate(ctx context.Context, s *transform.Substitution, region int) (context.Context, *trace.Span) {
	ctx, sp := trace.StartSpan(ctx, "candidate")
	sp.SetAttr("kind", s.Kind.String())
	sp.SetAttr("sub", s.String())
	sp.SetAttr("gain", s.Gain())
	sp.SetAttr("region", region)
	return ctx, sp
}

func endCandidate(sp *trace.Span, outcome string) {
	sp.SetAttr("outcome", outcome)
	sp.End()
}

// reject discards a selected candidate: the reason count and a ledger
// provenance entry with the proof record when the candidate reached the
// prover. Only the commit phase calls it; the candidate's span carries
// the reason as its outcome.
func (r *run) reject(reason string, region int, s *transform.Substitution, proof *obs.LedgerProof) {
	r.res.Rejects[reason]++
	if r.led != nil {
		a := r.attempt(s, region, proof)
		a.Outcome, a.Reason = obs.LedgerRejected, reason
		r.led.Record(a)
	}
}

// verdictReason is the reject reason of a proof that did not come out
// permissible.
func verdictReason(v atpg.Verdict) string {
	if v == atpg.Aborted {
		return RejectAborted
	}
	return RejectRefuted
}

// round runs one bulk-synchronous round — decompose, run the region
// workers, commit their proposals — and reports whether it applied any
// substitution.
func (r *run) round(ctx context.Context, round int) bool {
	nl, res, par := r.nl, r.res, r.par
	par.Rounds++
	baseNodes := netlist.NodeID(nl.NumNodes())
	d := partition.Decompose(nl, r.opts.Parallelism)
	par.Regions += len(d.Regions)
	rctx, rSpan := trace.StartSpan(ctx, "round")
	defer rSpan.End()
	rSpan.SetAttr("round", round)
	rSpan.SetAttr("regions", len(d.Regions))

	reports := r.runWorkers(rctx, rSpan, d)
	res.Harvests++
	roundCandidates, roundProposals := 0, 0
	for _, rep := range reports {
		if rep.err != nil {
			// A worker panic is a run panic: the run-level recover
			// restores the last verified snapshot and reports it.
			panic(rep.err)
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
		return false
	}

	// Serial commit phase, rendered on the master lane: conflict
	// checks, re-proofs, and applies all inherit the track.
	cctx, commitSpan := trace.StartSpan(rctx, "commit")
	commitSpan.SetTrack(masterTrack)
	commitStart := time.Now()
	touched := make(map[netlist.NodeID]touchMark)
	applied := res.Applied
	for _, rep := range reports {
		ch := &regionChain{
			region:  rep.region,
			base:    baseNodes,
			idMap:   make(map[netlist.NodeID]netlist.NodeID),
			foreign: res.Applied > applied,
		}
		// The region's rejects land between its commits in decision
		// order, also those after a stop.
		pending := rep.rejected
		rejectUpTo := func(proposals int) {
			for ; len(pending) > 0 && pending[0].before <= proposals; pending = pending[1:] {
				r.reject(pending[0].reason, rep.region, pending[0].sub, pending[0].proof)
			}
		}
		for i, p := range rep.proposals {
			rejectUpTo(i)
			if !r.done {
				r.commit(cctx, ch, p, touched)
			}
		}
		rejectUpTo(len(rep.proposals))
	}
	commitSpan.End()
	par.CommitSeconds += time.Since(commitStart).Seconds()
	return res.Applied > applied
}

// runWorkers runs one worker per region concurrently, deals each a share
// of the unspent retry quota (deterministically, in region order), and
// takes the unspent shares back at the round barrier. It returns the
// reports in region order.
func (r *run) runWorkers(ctx context.Context, rSpan *trace.Span, d *partition.Decomposition) []*workerReport {
	par := r.par
	n := len(d.Regions)
	reports := make([]*workerReport, n)
	quota := r.retries
	parStart := time.Now()
	var wg sync.WaitGroup
	for i := range d.Regions {
		share := quota / n
		if i < quota%n {
			share++
		}
		r.retries -= share
		wg.Add(1)
		go func(region, retries int) {
			defer wg.Done()
			reports[region] = r.runRegion(ctx, d, region, retries)
		}(i, share)
	}
	wg.Wait()
	barrier := time.Now()

	// Scheduler statistics for the round: per-worker busy time against
	// the capacity the round offered, the spread between the first and
	// last worker to reach the barrier, and — on traced runs — a
	// retroactive barrier-wait span closing out each worker's lane.
	par.ParallelSeconds += barrier.Sub(parStart).Seconds()
	tr := trace.FromContext(ctx)
	var firstEnd, lastEnd time.Time
	for _, rep := range reports {
		r.retries += rep.retries
		par.WorkerBusySeconds += rep.end.Sub(rep.start).Seconds()
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
	par.MaxBarrierSkewSeconds = max(par.MaxBarrierSkewSeconds, lastEnd.Sub(firstEnd).Seconds())
	return reports
}

// runRegion is one region worker's round: the inner loop of the paper's
// Figure 5 — select, delay check, prove, apply — on a private replica,
// returning the applied substitutions as proposals for the commit phase.
// It never touches the master netlist; a panic is handed to the round.
func (r *run) runRegion(ctx context.Context, d *partition.Decomposition, region, retries int) (rep *workerReport) {
	rep = &workerReport{region: region, rejects: map[string]int{}, retries: retries, start: time.Now()}
	defer func() {
		if p := recover(); p != nil {
			rep.err = fmt.Errorf("region %d worker panic: %v", region, p)
		}
	}()
	defer func() { rep.end = time.Now() }()
	wctx, wSpan := trace.StartSpan(ctx, "region")
	wSpan.SetTrack(workerTrack(region))
	wSpan.SetAttr("region", region)
	defer wSpan.End()
	opts := r.opts

	// Replica construction: Clone preserves node IDs and the power
	// estimate is deterministic in (netlist, options), so replica node
	// values coincide with the master's.
	var replica *netlist.Netlist
	var rpm *power.Model
	phase(wctx, "par-replica", func() {
		replica = r.nl.Clone()
		rpm = power.Estimate(replica, opts.Power)
	})

	an := transform.NewAnalyzer(replica, rpm)
	rf := newRefresher(replica)
	cfg := opts.Transform
	if len(d.Regions) > 1 {
		cfg.TargetFilter = func(id netlist.NodeID) bool { return d.RegionOf(id) == region }
	}
	cands := transform.GenerateCtx(wctx, replica, rpm, cfg)
	rep.candidates = len(cands)
	wSpan.SetAttr("candidates", len(cands))
	if len(cands) == 0 {
		return rep
	}
	phase(wctx, "ab-analysis", func() {
		for _, s := range cands {
			an.AnalyzeAB(s)
		}
	})

	// timing is the replica's delay analysis, rebuilt on demand after
	// each replica apply.
	var timing *sta.Analysis
	pv := &prover{r: r, nl: replica, retries: &rep.retries, escal: &rep.escal}
	defer func() { rep.stats = pv.stats() }()
	reject := func(sp *trace.Span, reason string, s *transform.Substitution, proof *obs.LedgerProof) {
		rep.rejected = append(rep.rejected, rejection{len(rep.proposals), reason, s, proof})
		endCandidate(sp, reason)
	}

	var valid []int
	for repeat := opts.Repeat; repeat > 0 && len(cands) > 0 && ctx.Err() == nil; {
		// Pre-selection: the best PG_A+PG_B candidates (cheap) that are
		// still valid, then PG_C reestimation only for those (paper
		// Section 3.5).
		k := opts.PreselectK
		if opts.DisablePreselect || k > len(cands) {
			k = len(cands)
		}
		phase(wctx, "preselect", func() {
			partialSelectByGainAB(cands, k)
			valid = valid[:0]
			for i, s := range cands[:k] {
				if candidateValid(replica, s) {
					valid = append(valid, i)
				}
			}
		})
		var best *transform.Substitution
		bestIdx := -1
		phase(wctx, "pgc-reestimate", func() {
			for _, i := range valid {
				s := cands[i]
				an.AnalyzeC(s)
				if best == nil || s.Gain() > best.Gain() {
					best, bestIdx = s, i
				}
			}
		})
		if best == nil || best.Gain() <= opts.MinGain {
			// No power-reducing substitution left in this harvest; the
			// next round re-harvests after the structural changes, and
			// the run ends once a round applies nothing.
			if best != nil {
				_, cSpan := startCandidate(wctx, best, region)
				reject(cSpan, RejectLowGain, best, nil)
			}
			break
		}
		// Drop the candidate from the pool whatever happens next.
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)

		// One span per selected candidate; the proof (with its SAT solves
		// and escalation steps) nests under it.
		cctx, cSpan := startCandidate(wctx, best, region)
		if r.res.Constraint > 0 && !r.delayOK(cctx, &timing, replica, best) {
			reject(cSpan, RejectDelay, best, nil)
			continue // increases_delay -> discard, pick the next best
		}
		verdict, support, proof := pv.prove(cctx, best)
		if verdict != atpg.Permissible {
			reject(cSpan, verdictReason(verdict), best, proof)
			continue
		}

		// Apply on the replica so later proofs and gains in this region
		// see the updated structure; the master replays the same edit at
		// commit time under the transactional journal.
		pre, rewired := preApplyTouched(replica, best)
		txn := replica.Begin()
		_, aSpan := trace.StartSpan(cctx, "apply")
		applyRes, applyErr := transform.ApplySafe(replica, best)
		aSpan.End()
		if applyErr != nil {
			txn.Rollback()
			rf.full = true
			reject(cSpan, RejectApplyConflict, best, proof)
			continue
		}
		txn.Commit()
		var changed []netlist.NodeID
		phase(cctx, "power-resync", func() { changed = rpm.Resync() })
		timing = nil
		rep.proposals = append(rep.proposals, proposal{
			sub:     best,
			proof:   proof,
			support: support,
			added:   applyRes.Added,
		})
		endCandidate(cSpan, "proposed")
		repeat--
		// The run ends at the commit that reaches MaxSubstitutions
		// (Applied only changes in the commit phase).
		if opts.MaxSubstitutions > 0 && r.res.Applied+len(rep.proposals) >= opts.MaxSubstitutions {
			break
		}

		// Stale AB gains are refreshed for the surviving candidates; this
		// keeps the pre-selection meaningful within the repeat window
		// without a full re-harvest.
		phase(wctx, "ab-analysis", func() {
			cands = rf.refresh(an, cands, pre, rewired, applyRes, changed, func() {
				rep.rejects[RejectStale]++
				r.led.CountReject(RejectStale)
			})
		})
	}
	wSpan.SetAttr("proposals", len(rep.proposals))
	return rep
}

// regionChain is the commit-time state of one region's proposals.
type regionChain struct {
	region int
	// base is the master's node count at round start; replica nodes at
	// or above it are translated through idMap, which the region's
	// commits extend with the nodes they create.
	base  netlist.NodeID
	idMap map[netlist.NodeID]netlist.NodeID
	// broken is set once a proposal of the region fails to commit.
	broken bool
	// foreign is set when another region committed earlier this round.
	foreign bool
}

func (ch *regionChain) mapID(id netlist.NodeID) (netlist.NodeID, bool) {
	if id < ch.base {
		return id, true
	}
	m, ok := ch.idMap[id]
	return m, ok
}

// commit replays one proposal on the master. A proposal whose proof may
// not hold there is re-proved; when the master may differ from the state
// the replica proposed from — another region committed first, or the
// region's chain is broken — its delay is re-checked too. The apply runs
// inside a journal transaction and is re-validated (structural
// invariants plus a primary-output signature re-simulation); damage
// rolls it back and the run continues.
func (r *run) commit(ctx context.Context, ch *regionChain, p proposal, touched map[netlist.NodeID]touchMark) {
	nl, res, region := r.nl, r.res, ch.region
	ms, ok := mapSub(p.sub, ch.mapID)
	if !ok || !candidateValid(nl, ms) {
		_, sp := startCandidate(ctx, p.sub, region)
		r.reject(RejectStale, region, p.sub, p.proof)
		endCandidate(sp, RejectStale)
		ch.broken = true
		return
	}
	conflict := r.conflict(ch, ms, p.support, touched)
	if conflict != "" && r.stopRequested(ctx) {
		// A stopped run still commits the proposals whose proofs carry
		// over, but starts no re-proof; the region's chain ends here.
		ch.broken = true
		return
	}

	pctx, pSpan := startCandidate(ctx, ms, region)
	fail := func(reason string, proof *obs.LedgerProof) {
		r.reject(reason, region, ms, proof)
		endCandidate(pSpan, reason)
		ch.broken = true
	}

	proof := p.proof
	if conflict != "" {
		// Serial re-proof against the actual master state.
		r.par.Replays++
		pSpan.SetAttr("conflict", true)
		pSpan.SetAttr("conflict_kind", conflict)
		var verdict atpg.Verdict
		verdict, _, proof = r.prover.prove(pctx, ms)
		if verdict != atpg.Permissible {
			fail(verdictReason(verdict), proof)
			return
		}
	}
	if (ch.foreign || ch.broken) && r.res.Constraint > 0 && !r.delayOK(pctx, &r.timing, nl, ms) {
		fail(RejectDelay, proof)
		return
	}

	hooks := r.opts.Inject
	if hooks != nil && hooks.Panic != nil && hooks.Panic(res.Applied) {
		panic(fmt.Sprintf("faultinject: injected panic after %d substitutions", res.Applied))
	}

	// Bracket the apply with power captures: their difference is the
	// realized gain, and the per-node diff is its attribution over the
	// touched cone. Simulation is deterministic, so the realized gains of
	// the applied moves telescope exactly to the headline Initial.Power -
	// Final.Power (rollbacks restore prior values).
	var pBefore float64
	if r.led != nil {
		pBefore = r.pm.Total()
		r.perNodeBefore = r.pm.PerNode(r.perNodeBefore)
	}
	preTouched, _ := preApplyTouched(nl, ms)
	preSig := poSignatures(r.pm, nl)
	txn := nl.Begin()
	_, aSpan := trace.StartSpan(pctx, "apply")
	applyRes, applyErr := transform.ApplySafe(nl, ms)
	aSpan.End()
	reason := RejectApplyConflict
	if applyErr == nil && hooks != nil && hooks.CorruptApply != nil {
		if cerr := hooks.CorruptApply(nl, res.Applied); cerr != nil {
			applyErr = cerr
			reason = RejectRollback
		}
	}
	if applyErr == nil {
		phase(pctx, "validate", func() { applyErr = nl.Validate() })
		if applyErr != nil {
			reason = RejectRollback
		}
	}
	if applyErr == nil {
		phase(pctx, "power-resync", func() { r.pm.Resync() })
		if !slices.Equal(preSig, poSignatures(r.pm, nl)) {
			applyErr = fmt.Errorf("core: primary-output signatures changed after apply of %v", ms)
			reason = RejectRollback
		}
	}
	if applyErr != nil {
		txn.Rollback()
		phase(pctx, "power-resync", func() { r.pm.Resync() })
		pSpan.SetAttr("error", applyErr.Error())
		fail(reason, proof)
		return
	}
	txn.Commit()
	r.timing = nil

	// Extend the region's ID map with the nodes this apply created; the
	// master allocates them in the same order as the replica did.
	if len(applyRes.Added) != len(p.added) {
		ch.broken = true
	} else {
		for i, replicaID := range p.added {
			ch.idMap[replicaID] = applyRes.Added[i]
		}
	}
	markTouched(touched, region, preTouched)
	markTouched(touched, region, postApplyTouched(nl, applyRes))

	if r.led != nil {
		pAfter := r.pm.Total()
		r.perNodeAfter = r.pm.PerNode(r.perNodeAfter)
		a := r.attempt(ms, region, proof)
		a.Outcome, a.PowerBefore, a.PowerAfter, a.RealizedGain = obs.LedgerApplied, pBefore, pAfter, pBefore-pAfter
		a.Cone = coneDeltas(nl, r.perNodeBefore, r.perNodeAfter)
		r.led.Record(a)
	}
	cs := res.ByClass[ms.Kind]
	cs.Count++
	cs.PowerGain += ms.Gain()
	cs.AreaDelta += ms.AreaDelta
	res.Applied++
	pSpan.SetAttr("area_delta", ms.AreaDelta)
	pSpan.SetAttr("applied", res.Applied)
	endCandidate(pSpan, "applied")
	r.reportProgress(false)
	if r.opts.MaxSubstitutions > 0 && res.Applied >= r.opts.MaxSubstitutions {
		res.Stopped = StopMaxSubs
		r.done = true
		return
	}
	// Safety-net refresh: periodically re-prove the current netlist
	// equivalent to the input and advance the last-good snapshot. Runs
	// after the substitution-cap check so a run that just hit its cap
	// does not pay for a proof whose snapshot is never used.
	if r.opts.VerifyEvery > 0 && res.Applied%r.opts.VerifyEvery == 0 && ctx.Err() == nil {
		r.verifySafetyNet(ctx)
	}
}

// delayOK reports whether applying s keeps nl within the run's delay
// constraint, first building *timing (nl's delay analysis, nil after an
// edit) when needed.
func (r *run) delayOK(ctx context.Context, timing **sta.Analysis, nl *netlist.Netlist, s *transform.Substitution) bool {
	if *timing == nil {
		phase(ctx, "delay-analysis", func() { *timing = sta.New(nl, r.res.Constraint) })
	}
	_, sp := trace.StartSpan(ctx, "delay-check")
	defer sp.End()
	return transform.DelayOK(nl, s, *timing)
}

// conflict reports why a proposal's proof may not hold on the master
// ("" when it does): its region's chain is broken, a support node was
// created by a commit that never happened, or a support node was
// touched by another region's commit this round. The first offending
// node names the conflict-heatmap cell.
func (r *run) conflict(ch *regionChain, ms *transform.Substitution, support []netlist.NodeID, touched map[netlist.NodeID]touchMark) string {
	if ch.broken {
		r.recordConflict(ch.region, ch.region, ms.TargetString(), "broken-chain")
		return "broken-chain"
	}
	for _, sid := range support {
		m, ok := ch.mapID(sid)
		if !ok {
			r.recordConflict(ch.region, -1, ms.TargetString(), "stale")
			return "stale"
		}
		if t, hit := touched[m]; hit && (t.shared || t.region != ch.region) {
			kind := "touched"
			if t.shared {
				kind = "shared"
			}
			r.recordConflict(ch.region, t.region, r.nl.Node(m).Name(), kind)
			return kind
		}
	}
	return ""
}

// verifySafetyNet re-proves the netlist equivalent to the input and, on
// success, advances the last-good snapshot. Every substitution was
// individually proven, so a refutation means a checker or apply bug
// slipped through every other net: restore the last verified state and
// stop. An aborted verification keeps the previous snapshot.
func (r *run) verifySafetyNet(ctx context.Context) {
	svctx, svSpan := trace.StartSpan(ctx, "safety-verify")
	eq, err := atpg.EquivalentCtx(svctx, r.input, r.nl, 0)
	svSpan.End()
	switch {
	case err == nil && eq.Verdict == atpg.Permissible:
		r.lastGood = r.nl.Clone()
		r.res.SafetyRefreshes++
	case err == nil && eq.Verdict == atpg.NotPermissible:
		r.nl.RestoreFrom(r.lastGood)
		r.pm.Resync()
		r.timing = nil
		r.verifyErr = fmt.Errorf("core: periodic verification refuted equivalence on output %q; restored last verified snapshot", eq.DifferingOutput)
		r.done = true
	}
}

// prover proves substitutions on one netlist for one goroutine: a region
// worker's proofs on its replica, or the commit phase's re-proofs on the
// master. Its checker is rebuilt whenever the netlist has moved since the
// previous proof; every checker of a run shares the refuted-miter cache.
type prover struct {
	r       *run
	nl      *netlist.Netlist
	c       *atpg.IncrementalChecker
	version int64
	// replaced sums the statistics of the checkers already rebuilt.
	replaced atpg.CheckStats
	// proofs is the running proof count across rebuilds, the argument
	// of the ForceAbort hook.
	proofs int
	// retries is the quota escalations draw from; escal records them.
	retries *int
	escal   *EscalationStats
}

// checker returns a checker over the netlist's current version.
func (p *prover) checker() *atpg.IncrementalChecker {
	if p.c != nil && p.version == p.nl.Version() {
		return p.c
	}
	if p.c != nil {
		addCheckStats(&p.replaced, p.c.Stats)
	}
	p.c = atpg.NewIncrementalChecker(p.nl)
	p.c.Sig = p.r.sig
	if p.r.opts.CheckBudget > 0 {
		p.c.Budget = p.r.opts.CheckBudget
	}
	p.version = p.nl.Version()
	return p.c
}

// stats returns the check statistics of every proof the prover ran.
func (p *prover) stats() atpg.CheckStats {
	s := p.replaced
	if p.c != nil {
		addCheckStats(&s, p.c.Stats)
	}
	return s
}

// prove runs the exact permissibility proof of s (the paper's
// check_candidate; an abort counts as not permissible). An aborted proof
// is retried with a budget escalationFactor times larger, at most
// escalationSteps times, while the retry quota lasts. It returns the
// final verdict, the support set of a permissible proof, and the ledger
// record of the effort of every attempt.
func (p *prover) prove(ctx context.Context, s *transform.Substitution) (atpg.Verdict, []netlist.NodeID, *obs.LedgerProof) {
	r, c := p.r, p.checker()
	base := c.Budget
	defer func() { c.Budget = base }()
	proof := &obs.LedgerProof{}
	var verdict atpg.Verdict
	var support []netlist.NodeID
	for step := 0; step == 0 || (verdict == atpg.Aborted && step <= escalationSteps && *p.retries > 0 && ctx.Err() == nil); step++ {
		c.Ctx = ctx
		var eSpan *trace.Span
		if step > 0 {
			c.Budget *= escalationFactor
			*p.retries--
			p.escal.Retries++
			proof.Escalations++
			// Each retry gets its own child span so an escalation ladder
			// is visible as stacked re-proofs under the candidate.
			c.Ctx, eSpan = trace.StartSpan(ctx, "escalate")
			eSpan.SetAttr("step", step)
			eSpan.SetAttr("budget", c.Budget)
		}
		if s.IsBranchSub() {
			verdict, support = c.CheckBranch(s.G, s.Pin, s.Src)
		} else {
			verdict, support = c.CheckStem(s.A, s.Src)
		}
		d := c.LastCheck
		proof.Conflicts += d.Conflicts
		proof.Decisions += d.Decisions
		proof.Seconds += d.Seconds
		proof.Budget = d.Budget
		p.proofs++
		if h := r.opts.Inject; h != nil && h.ForceAbort != nil && h.ForceAbort(p.proofs) {
			verdict = atpg.Aborted
		}
		if eSpan != nil {
			eSpan.SetAttr("verdict", verdict.String())
			eSpan.SetAttr("retries_left", *p.retries)
			eSpan.End()
		}
	}
	proof.Verdict = verdict.String()
	if proof.Escalations == 0 {
		return verdict, support, proof
	}
	switch verdict {
	case atpg.Permissible:
		p.escal.Permissible++
	case atpg.NotPermissible:
		p.escal.Refuted++
	default:
		p.escal.Exhausted++
	}
	return verdict, support, proof
}

// addCheckStats folds src into dst.
func addCheckStats(dst *atpg.CheckStats, src atpg.CheckStats) {
	dst.Checks += src.Checks
	dst.Permissible += src.Permissible
	dst.Refuted += src.Refuted
	dst.Aborted += src.Aborted
	dst.Conflicts += src.Conflicts
	dst.Decisions += src.Decisions
	dst.Cached += src.Cached
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

// preApplyTouched lists the nodes whose connectivity the pending apply
// will change before the apply runs: the substituted stem, the signals
// picking up the moved load, and from index rewired on the gates of
// every detached branch, whose fanins the apply rewires.
func preApplyTouched(nl *netlist.Netlist, s *transform.Substitution) (ids []netlist.NodeID, rewired int) {
	ids = []netlist.NodeID{s.A, s.Src.B}
	if s.Src.IsThree() {
		ids = append(ids, s.Src.C)
	}
	if s.Inv == transform.InvReuse {
		ids = append(ids, s.InvNode)
	}
	rewired = len(ids)
	if s.IsBranchSub() {
		ids = append(ids, s.G)
	} else {
		for _, b := range nl.Node(s.A).Fanouts() {
			if !b.IsPO() {
				ids = append(ids, b.Gate)
			}
		}
	}
	return ids, rewired
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
// the ledger's 1-based scheme (0 = master/unknown).
func (r *run) recordConflict(region, other int, node, kind string) {
	r.par.Conflicts++
	r.conf.Record(region+1, other+1, node, kind)
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
