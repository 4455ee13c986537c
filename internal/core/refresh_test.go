package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"powder/internal/activity"
	"powder/internal/netlist"
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

// TestIncrementalRefreshIsExact runs the full reference refresh beside the
// incremental one after every replica apply: a candidate whose validity
// check was skipped must be valid, and every kept candidate's GainAB and
// AreaDelta must equal a fresh AnalyzeAB bit for bit.
func TestIncrementalRefreshIsExact(t *testing.T) {
	var refreshes, checked, failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 10 {
			t.Errorf(format, args...)
		}
	}
	refreshCheck = func(nl *netlist.Netlist, an *transform.Analyzer, before, kept []*transform.Substitution) {
		refreshes.Add(1)
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
	defer func() { refreshCheck = nil }()

	names := []string{"comp", "clip", "apex1", "x3", "ex4", "rd84", "t481", "misex3", "C432", "spla"}
	if raceEnabled {
		// The detector slows the runs ~10x; three small circuits still
		// run every shape, and the hook concurrently at -par 2.
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
	t.Logf("%d refreshes of %d candidates checked", refreshes.Load(), checked.Load())
	if refreshes.Load() < 50 {
		t.Errorf("only %d refreshes ran; the runs apply too little to test the refresh", refreshes.Load())
	}
}
