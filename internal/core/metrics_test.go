package core

import (
	"fmt"
	"strings"
	"testing"

	"powder/internal/obs"
	"powder/internal/transform"
)

// TestRecordMetricsMatchesResult pins the fold from Result to registry:
// every engine counter equals the Result field it is read from, and no
// other counter appears; each phase row's span count lands in
// core.phase.spans{phase} and its seconds in core.phase.seconds{phase};
// the ledger histograms observe each retained move once; and one-region
// runs produce no core.par.* series. The set of runs reaches escalations,
// vector refutations and region conflicts, so those series are checked
// against real values.
func TestRecordMetricsMatchesResult(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range []string{"comp", "apex5"} {
		for _, par := range []int{1, 2} {
			for _, delay := range []float64{0, 1} {
				t.Run(fmt.Sprintf("%s/par%d/delay%g", name, par, delay), func(t *testing.T) {
					res, err := Optimize(compileBenchmark(t, name), Options{
						DelayFactor: delay,
						Parallelism: par,
						MaxRetries:  20,
						CheckBudget: 30,
						Power:       powerOptsSmall(),
						Transform:   transform.Config{AllowInverted: true},
					})
					if err != nil {
						t.Fatal(err)
					}
					reg := obs.NewRegistry()
					RecordMetrics(reg, res)
					snap := reg.Snapshot()
					want := wantCounters(res)
					for n, v := range want {
						if got := snap.Counters[n]; got != v {
							t.Errorf("%s = %d, want %d from the result", n, got, v)
						}
						seen[n] = seen[n] || v > 0
					}
					for n := range snap.Counters {
						if _, ok := want[n]; !ok {
							t.Errorf("unexpected counter %s", n)
						}
					}
					for _, p := range res.Phases {
						h := snap.Histograms[obs.Labeled("core.phase.seconds", "phase", p.Name)]
						if h.Count != 1 || h.Sum != p.Seconds {
							t.Errorf("core.phase.seconds{phase=%q}: count %d sum %g, want 1 observation of %g",
								p.Name, h.Count, h.Sum, p.Seconds)
						}
					}
					for _, n := range []string{"core.apply.gain", "core.ledger.realized_gain"} {
						if got := snap.Histograms[n].Count; got != int64(len(res.Ledger.Moves)) {
							t.Errorf("%s: %d observations, want %d retained moves", n, got, len(res.Ledger.Moves))
						}
					}
					for n := range snap.Histograms {
						if par == 1 && strings.HasPrefix(n, "core.par.") {
							t.Errorf("-par 1: histogram %s", n)
						}
					}
					for _, n := range []string{"core.par.run.busy_frac", "core.par.run.commit_share"} {
						if got := snap.Histograms[n].Count; par > 1 && got != 1 {
							t.Errorf("-par %d: %s has %d observations, want 1", par, n, got)
						}
					}
				})
			}
		}
	}
	for _, n := range []string{
		"atpg.vector.refuted", "atpg.verdict.aborted", "core.escalation.retries",
		"core.rejects.delay", "core.rejects.refuted", "core.rejects.stale",
		"core.par.conflicts", "core.par.replays",
	} {
		if !seen[n] {
			t.Errorf("no run moved %s", n)
		}
	}

	reg := obs.NewRegistry()
	RecordMetrics(reg, nil)
	RecordMetrics(nil, &Result{Applied: 1})
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Histograms) != 0 {
		t.Errorf("a nil result recorded %+v", snap)
	}
}

// wantCounters derives every counter a fold of res must hold from the
// result's own fields.
func wantCounters(res *Result) map[string]int64 {
	cs := res.CheckStats
	want := map[string]int64{
		"atpg.checks":                  int64(cs.Checks),
		"atpg.conflicts":               cs.Conflicts,
		"atpg.decisions":               cs.Decisions,
		"atpg.verdict.permissible":     int64(cs.Permissible),
		"atpg.verdict.not-permissible": int64(cs.Refuted),
		"atpg.verdict.aborted":         int64(cs.Aborted),
		"atpg.vector.refuted":          int64(cs.VectorRefuted),
		"transform.candidates":         int64(res.Candidates),
		"core.applied":                 int64(res.Applied),
		"core.safety.refresh":          int64(res.SafetyRefreshes),
		"core.escalation.retries":      int64(res.Escalation.Retries),
		"core.escalation.permissible":  int64(res.Escalation.Permissible),
		"core.escalation.refuted":      int64(res.Escalation.Refuted),
		"core.escalation.exhausted":    int64(res.Escalation.Exhausted),
		"core.ledger.attempts":         int64(res.Ledger.Attempts),
		"core.ledger.applied":          int64(res.Ledger.Applied),
	}
	for reason, n := range res.Rejects {
		want["core.rejects."+reason] = int64(n)
	}
	for _, p := range res.Phases {
		want[obs.Labeled("core.phase.spans", "phase", p.Name)] = p.Count
	}
	if par := res.Parallel; par != nil {
		want["core.par.rounds"] = int64(par.Rounds)
		want["core.par.replays"] = int64(par.Replays)
		want["core.par.conflicts"] = int64(par.Conflicts)
		if cl := par.ConflictLedger; cl != nil {
			for kind, n := range cl.ByKind {
				want[obs.Labeled("par.conflicts", "kind", kind)] = n
			}
		}
	}
	return want
}
