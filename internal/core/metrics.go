package core

import (
	"powder/internal/atpg"
	"powder/internal/obs"
)

// RecordMetrics folds one run, complete or a stopped or failed run's
// partial result, into reg. The engine packages write no registry: this
// is the one place that decides which run facts become which series, so
// a run's series move once, when its caller folds it. A counter appears
// once its fact has occurred, the core.par.* and par.conflicts series
// only on multi-region runs. Each phase row adds its span count to
// core.phase.spans{phase} and its seconds, as one observation, to
// core.phase.seconds{phase}; the gain histograms observe the ledger's
// retained moves. A nil registry or result records nothing.
func RecordMetrics(reg *obs.Registry, res *Result) {
	if reg == nil || res == nil {
		return
	}
	add := func(name string, n int64) {
		if n > 0 {
			reg.Counter(name).Add(n)
		}
	}
	cs := res.CheckStats
	if cs.Checks > 0 {
		reg.Counter("atpg.checks").Add(int64(cs.Checks))
		reg.Counter("atpg.conflicts").Add(cs.Conflicts)
		reg.Counter("atpg.decisions").Add(cs.Decisions)
	}
	add("atpg.verdict."+atpg.Permissible.String(), int64(cs.Permissible))
	add("atpg.verdict."+atpg.NotPermissible.String(), int64(cs.Refuted))
	add("atpg.verdict."+atpg.Aborted.String(), int64(cs.Aborted))
	add("atpg.vector.refuted", int64(cs.VectorRefuted))
	if res.Harvests > 0 {
		reg.Counter("transform.candidates").Add(int64(res.Candidates))
	}

	add("core.applied", int64(res.Applied))
	for reason, n := range res.Rejects {
		add("core.rejects."+reason, int64(n))
	}
	add("core.safety.refresh", int64(res.SafetyRefreshes))
	add("core.escalation.retries", int64(res.Escalation.Retries))
	add("core.escalation.permissible", int64(res.Escalation.Permissible))
	add("core.escalation.refuted", int64(res.Escalation.Refuted))
	add("core.escalation.exhausted", int64(res.Escalation.Exhausted))
	if led := res.Ledger; led != nil {
		add("core.ledger.attempts", int64(led.Attempts))
		add("core.ledger.applied", int64(led.Applied))
		for _, m := range led.Moves {
			reg.Histogram("core.apply.gain").Observe(m.PredictedGain)
			reg.Histogram("core.ledger.realized_gain").Observe(m.RealizedGain)
		}
	}
	for _, p := range res.Phases {
		reg.Counter(obs.Labeled("core.phase.spans", "phase", p.Name)).Add(p.Count)
		reg.Histogram(obs.Labeled("core.phase.seconds", "phase", p.Name)).Observe(p.Seconds)
	}

	par := res.Parallel
	if par == nil {
		return
	}
	add("core.par.rounds", int64(par.Rounds))
	add("core.par.replays", int64(par.Replays))
	add("core.par.conflicts", int64(par.Conflicts))
	if cl := par.ConflictLedger; cl != nil {
		for kind, n := range cl.ByKind {
			add(obs.Labeled("par.conflicts", "kind", kind), n)
		}
	}
	reg.Histogram("core.par.run.busy_frac").Observe(par.BusyFrac())
	reg.Histogram("core.par.run.commit_share").Observe(par.CommitShare())
}
