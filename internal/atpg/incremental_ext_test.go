package atpg_test

// External test package: the parity suite harvests real candidates with
// internal/transform, which itself imports atpg.

import (
	"slices"
	"testing"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/synth"
	"powder/internal/transform"
)

func compileBenchmark(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	spec, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestIncrementalParity: on every harvested candidate of two circuits,
// the checker's verdict matches a reference that shares no miter code
// with it: apply the substitution to a clone and decide whether the
// rewired circuit is equivalent to the original (modulo Aborted, which is
// budget-path dependent).
func TestIncrementalParity(t *testing.T) {
	for _, name := range []string{"comp", "clip"} {
		nl := compileBenchmark(t, name)
		pm := power.Estimate(nl, power.Options{})
		cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", name)
		}
		inc := atpg.NewIncrementalChecker(nl)
		for _, s := range cands {
			got, support := checkSub(inc, s)
			rewired := nl.Clone()
			if _, err := transform.Apply(rewired, s); err != nil {
				t.Fatalf("%s: %v: apply: %v", name, s, err)
			}
			eq, err := atpg.Equivalent(nl, rewired, 0)
			if err != nil {
				t.Fatalf("%s: %v: equivalence: %v", name, s, err)
			}
			want := eq.Verdict
			if want == atpg.Aborted || got == atpg.Aborted {
				continue
			}
			if want != got {
				t.Fatalf("%s: %v: rewired clone %v, incremental %v", name, s, want, got)
			}
			if got == atpg.Permissible {
				inSupport := make(map[netlist.NodeID]bool, len(support))
				for _, id := range support {
					inSupport[id] = true
				}
				if !inSupport[s.Src.B] {
					t.Fatalf("%s: %v: support %v misses source %d", name, s, support, s.Src.B)
				}
				if !inSupport[s.A] {
					t.Fatalf("%s: %v: support misses substituted signal %d", name, s, s.A)
				}
			}
		}
	}
}

// TestVectorShortCircuit: re-checking a refuted candidate does no solver
// work, and a checker over a clone, seeded with the first checker's
// vectors as a region worker's is with the run's, refutes it too.
func TestVectorShortCircuit(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	// One sample word leaves the harvest filter loose enough to pass
	// candidates a proof refutes.
	pm := power.Estimate(nl, power.Options{Words: 1})
	cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
	inc := atpg.NewIncrementalChecker(nl)

	var refuted *transform.Substitution
	for _, s := range cands {
		v, _ := checkSub(inc, s)
		if v == atpg.NotPermissible && !inc.LastCheck.VectorRefuted {
			refuted = s
			break
		}
	}
	if refuted == nil {
		t.Fatal("no SAT refutation on comp")
	}
	if len(inc.Vectors) == 0 || !slices.Equal(inc.Vectors[len(inc.Vectors)-1], inc.Counterexample()) {
		t.Fatalf("the refutation's counterexample %v is not the last stored vector", inc.Counterexample())
	}
	c0, d0, r0 := inc.Stats.Conflicts, inc.Stats.Decisions, inc.Stats.VectorRefuted
	if v, _ := checkSub(inc, refuted); v != atpg.NotPermissible {
		t.Fatalf("recheck verdict %v", v)
	}
	if inc.Stats.Conflicts != c0 || inc.Stats.Decisions != d0 || inc.Stats.VectorRefuted != r0+1 {
		t.Fatalf("recheck: conflicts %d -> %d, decisions %d -> %d, vector refutations %d -> %d",
			c0, inc.Stats.Conflicts, d0, inc.Stats.Decisions, r0, inc.Stats.VectorRefuted)
	}

	inc2 := atpg.NewIncrementalChecker(nl.Clone())
	inc2.Vectors = slices.Clone(inc.Vectors)
	if v, _ := checkSub(inc2, refuted); v != atpg.NotPermissible || !inc2.LastCheck.VectorRefuted {
		t.Fatalf("clone checker: %v (vector refuted %t), want a vector refutation", v, inc2.LastCheck.VectorRefuted)
	}
	if inc2.Stats.Conflicts != 0 || inc2.Stats.Decisions != 0 {
		t.Fatal("clone checker solved despite the stored vectors")
	}
}

func checkSub(c *atpg.IncrementalChecker, s *transform.Substitution) (atpg.Verdict, []netlist.NodeID) {
	if s.IsBranchSub() {
		return c.CheckBranch(s.G, s.Pin, s.Src)
	}
	return c.CheckStem(s.A, s.Src)
}

// TestIncrementalVersionGuard: mutating the netlist under an incremental
// checker panics instead of silently proving against stale clauses.
func TestIncrementalVersionGuard(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	pm := power.Estimate(nl, power.Options{})
	cands := transform.Generate(nl, pm, transform.Config{})
	if len(cands) == 0 {
		t.Skip("no candidates")
	}
	inc := atpg.NewIncrementalChecker(nl)
	if _, err := transform.ApplySafe(nl, pickApplicable(t, nl, cands)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("check on a mutated netlist did not panic")
		}
	}()
	checkSub(inc, cands[0])
}

func pickApplicable(t *testing.T, nl *netlist.Netlist, cands []*transform.Substitution) *transform.Substitution {
	t.Helper()
	ck := atpg.NewIncrementalChecker(nl)
	for _, s := range cands {
		if v, _ := checkSub(ck, s); v == atpg.Permissible {
			return s
		}
	}
	t.Skip("no permissible candidate")
	return nil
}
