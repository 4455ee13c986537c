package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/netlist"
	"powder/internal/sta"
	"powder/internal/transform"
)

// referenceRefresh is the refresh after a replica apply that the
// incremental one replaced: every candidate re-validated, every valid one
// re-analyzed. It leaves cands untouched and returns the survivors with
// their fresh analyses as copies.
func referenceRefresh(nl *netlist.Netlist, an *transform.Analyzer, cands []*transform.Substitution) (kept []*transform.Substitution, fresh []transform.Substitution) {
	for _, s := range cands {
		if candidateValid(nl, s) {
			c := *s
			an.AnalyzeAB(&c)
			kept = append(kept, s)
			fresh = append(fresh, c)
		}
	}
	return kept, fresh
}

// levelProbs draws one signal probability per input from
// {.05, .1, .2, .5, .8, .9, .95}.
func levelProbs(seed int64, inputs int) []float64 {
	levels := []float64{.05, .1, .2, .5, .8, .9, .95}
	rng := rand.New(rand.NewSource(seed))
	probs := make([]float64, inputs)
	for i := range probs {
		probs[i] = levels[rng.Intn(len(levels))]
	}
	return probs
}

// vcdActivity dumps a biased random stimulus of nl as a VCD, reads it back
// and binds it to nl's inputs: the probabilities and pinned toggle
// densities an -activity run optimizes under.
func vcdActivity(t *testing.T, nl *netlist.Netlist) (probs, toggles []float64) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := activity.DumpVCD(&buf, nl, activity.DumpOptions{Seed: 16, InputProbs: levelProbs(7, len(nl.Inputs()))}); err != nil {
		t.Fatal(err)
	}
	prof, err := activity.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(nl.Inputs()))
	for i, id := range nl.Inputs() {
		names[i] = nl.Node(id).Name()
	}
	b, err := prof.Bind(names)
	if err != nil {
		t.Fatal(err)
	}
	return b.Probs, b.Toggles
}

// exactRefresh returns a refreshCheck hook that runs the full reference
// refresh beside every refresh, and beside every harvest as if the
// harvested pool were refreshed: each kept candidate, the next
// preselect's pool, must be valid, and must be one the full refresh
// keeps, with GainAB and AreaDelta equal to a fresh AnalyzeAB bit for
// bit. It counts the refreshes, not the harvests, in refreshes.
func exactRefresh(refreshes, checked *atomic.Int64, fail func(format string, args ...any)) func(*netlist.Netlist, *transform.Analyzer, []*transform.Substitution, []*transform.Substitution) {
	return func(nl *netlist.Netlist, an *transform.Analyzer, before, kept []*transform.Substitution) {
		if before == nil {
			before = kept // a harvested pool
		} else {
			refreshes.Add(1)
		}
		checked.Add(int64(len(before)))
		want, fresh := referenceRefresh(nl, an, before)
		for _, s := range kept {
			if !candidateValid(nl, s) {
				fail("%s: kept the invalid candidate %v", nl.Name, s)
			}
		}
		if len(kept) != len(want) {
			fail("%s: kept %d of %d candidates, the full refresh %d", nl.Name, len(kept), len(before), len(want))
			return
		}
		for i, s := range kept {
			if s != want[i] {
				fail("%s: kept %v where the full refresh keeps %v", nl.Name, s, want[i])
				return
			}
			if math.Float64bits(s.GainAB) != math.Float64bits(fresh[i].GainAB) ||
				math.Float64bits(s.AreaDelta) != math.Float64bits(fresh[i].AreaDelta) {
				fail("%s: %v holds GainAB %v AreaDelta %v, a fresh AnalyzeAB %v and %v",
					nl.Name, s, s.GainAB, s.AreaDelta, fresh[i].GainAB, fresh[i].AreaDelta)
			}
		}
	}
}

// exactGainC returns a gainCCheck hook that compares every PG_C a pick
// reuses with a fresh AnalyzeC, bit for bit, and counts the reuses.
func exactGainC(reuses *atomic.Int64, fail func(format string, args ...any)) func(*transform.Analyzer, *transform.Substitution) {
	return func(an *transform.Analyzer, s *transform.Substitution) {
		reuses.Add(1)
		c := *s
		an.AnalyzeC(&c)
		if math.Float64bits(c.GainC) != math.Float64bits(s.GainC) {
			fail("%v: reused GainC %v, a fresh AnalyzeC %v", s, s.GainC, c.GainC)
		}
	}
}

// referenceDelayAfter is the delay a what-if must match: s applied to a
// clone of nl, and the clone's full timing analysis.
func referenceDelayAfter(nl *netlist.Netlist, s *transform.Substitution) (float64, error) {
	cp := nl.Clone()
	sc := *s
	if _, err := transform.ApplySafe(cp, &sc); err != nil {
		return 0, err
	}
	return sta.New(cp, 0).Delay(), nil
}

// exactnessRuns optimizes each named circuit (three small ones under the
// race detector, which slows the runs about tenfold) under uniform,
// biased and VCD-pinned activity, free and delay-constrained, at -par 1
// and -par 2: the runs the exactness hooks are checked on, as parallel
// subtests of "runs".
func exactnessRuns(t *testing.T) {
	names := []string{"comp", "clip", "apex1", "x3", "ex4", "rd84", "t481", "misex3", "C432", "spla"}
	if raceEnabled {
		names = []string{"comp", "clip", "rd84"}
	}
	t.Run("runs", func(t *testing.T) {
		for _, name := range names {
			base := compileBenchmark(t, name)
			probs, toggles := vcdActivity(t, base)
			for _, act := range []string{"uniform", "biased", "pinned"} {
				for _, df := range []float64{0, 1} {
					for _, par := range []int{1, 2} {
						opts := Options{
							DelayFactor:      df,
							Parallelism:      par,
							MaxSubstitutions: 6,
							Transform:        transform.Config{AllowInverted: true},
						}
						switch act {
						case "biased":
							opts.Power.InputProbs = levelProbs(16, len(base.Inputs()))
						case "pinned":
							opts.Power.InputProbs, opts.Power.InputToggles = probs, toggles
						}
						t.Run(fmt.Sprintf("%s/%s/df%g/par%d", name, act, df, par), func(t *testing.T) {
							t.Parallel()
							if _, err := Optimize(base.Clone(), opts); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			}
		}
	})
}

// TestIncrementalRefreshIsExact runs the full reference refresh beside the
// incremental one after every replica apply, and beside every harvest:
// every candidate entering a preselect must be valid, and its GainAB and
// AreaDelta must equal a fresh AnalyzeAB bit for bit. Every PG_C a pick
// reuses from the pick before must equal a fresh AnalyzeC bit for bit.
func TestIncrementalRefreshIsExact(t *testing.T) {
	var refreshes, checked, reuses, failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 10 {
			t.Errorf(format, args...)
		}
	}
	refreshCheck = exactRefresh(&refreshes, &checked, fail)
	gainCCheck = exactGainC(&reuses, fail)
	defer func() { refreshCheck, gainCCheck = nil, nil }()
	exactnessRuns(t)
	t.Logf("%d refreshes of %d candidates, %d reused PG_C checked", refreshes.Load(), checked.Load(), reuses.Load())
	if refreshes.Load() < 50 {
		t.Errorf("only %d refreshes ran; the runs apply too little to test the refresh", refreshes.Load())
	}
	if reuses.Load() == 0 {
		t.Errorf("no pick reused a PG_C")
	}
}

// TestVectorRefutationsAreExact re-proves by SAT, on a fresh checker with
// no stored vectors and no conflict budget, every candidate a stored
// counterexample vector refuted in the exactness runs: the store refutes
// only what the proof would.
func TestVectorRefutationsAreExact(t *testing.T) {
	var confirmed, failures atomic.Int64
	vectorCheck = func(nl *netlist.Netlist, s *transform.Substitution) {
		c := atpg.NewIncrementalChecker(nl)
		c.Budget = 0
		var v atpg.Verdict
		if s.IsBranchSub() {
			v, _ = c.CheckBranch(s.G, s.Pin, s.Src)
		} else {
			v, _ = c.CheckStem(s.A, s.Src)
		}
		if v == atpg.NotPermissible {
			confirmed.Add(1)
		} else if failures.Add(1) <= 10 {
			t.Errorf("%s: %v refuted by a stored vector, SAT says %v", nl.Name, s, v)
		}
	}
	defer func() { vectorCheck = nil }()
	exactnessRuns(t)
	t.Logf("%d vector refutations confirmed by SAT", confirmed.Load())
	if confirmed.Load() == 0 {
		t.Errorf("no vector refutation to confirm")
	}
}

// TestRolledBackApplyRefreshes makes every other replica apply, from the
// first, fail after its edits, so that the journal rolls them back. A
// refresh must follow each rollback before anything else happens on the
// replica, and the full reference refresh beside it checks that the
// candidates entering the next preselect are exactly the valid ones,
// freshly analyzed. On delay-constrained runs the first delay check after
// each rollback must time the pick as the reference does, bit for bit.
func TestRolledBackApplyRefreshes(t *testing.T) {
	var (
		mu         sync.Mutex
		applies    int
		rolledBack = map[*netlist.Netlist]bool{}
		untimed    = map[*netlist.Netlist]bool{}
		rollbacks  int
		refreshed  int
		timed      int
	)
	applyReplica = func(nl *netlist.Netlist, s *transform.Substitution) (*transform.ApplyResult, error) {
		mu.Lock()
		defer mu.Unlock()
		if rolledBack[nl] {
			t.Errorf("%s: an apply followed a rollback without a refresh", nl.Name)
		}
		res, err := transform.ApplySafe(nl, s)
		if applies++; err == nil && applies%2 == 1 {
			rolledBack[nl] = true
			untimed[nl] = true
			rollbacks++
			return nil, fmt.Errorf("injected failure after applying %v", s)
		}
		return res, err
	}
	delayCheck = func(nl *netlist.Netlist, s *transform.Substitution, a *sta.Analysis) bool {
		mu.Lock()
		first := untimed[nl]
		delete(untimed, nl)
		mu.Unlock()
		if first {
			got, ok := transform.DelayAfter(nl, s, a)
			want, err := referenceDelayAfter(nl, s)
			if ok != (err == nil) || got != want {
				t.Errorf("%s: after a rollback %v times at %v (ok %v), the reference at %v (%v)", nl.Name, s, got, ok, want, err)
			}
			mu.Lock()
			timed++
			mu.Unlock()
		}
		return transform.DelayOK(nl, s, a)
	}
	defer func() { applyReplica, delayCheck = transform.ApplySafe, transform.DelayOK }()
	var refreshes, checked, failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 10 {
			t.Errorf(format, args...)
		}
	}
	exact := exactRefresh(&refreshes, &checked, fail)
	refreshCheck = func(nl *netlist.Netlist, an *transform.Analyzer, before, kept []*transform.Substitution) {
		mu.Lock()
		if rolledBack[nl] {
			delete(rolledBack, nl)
			refreshed++
		}
		mu.Unlock()
		exact(nl, an, before, kept)
	}
	defer func() { refreshCheck = nil }()

	for _, name := range []string{"comp", "clip", "rd84"} {
		base := compileBenchmark(t, name)
		for _, df := range []float64{0, 1.1} {
			for _, par := range []int{1, 2} {
				applies = 0
				res, err := Optimize(base.Clone(), Options{
					DelayFactor:      df,
					Parallelism:      par,
					MaxSubstitutions: 6,
					Transform:        transform.Config{AllowInverted: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rejects[RejectApplyConflict] == 0 {
					t.Errorf("%s df %g -par %d: no apply was rolled back", name, df, par)
				}
			}
		}
	}
	t.Logf("%d rollbacks, %d refreshes of %d candidates checked, %d delay checks after a rollback", rollbacks, refreshes.Load(), checked.Load(), timed)
	if refreshed != rollbacks {
		t.Errorf("%d of %d rollbacks were followed by a refresh", refreshed, rollbacks)
	}
	if timed == 0 {
		t.Errorf("no delay check followed a rollback")
	}
}
