package atpg_test

// External test package: the parity suite harvests real candidates with
// internal/transform, which itself imports atpg.

import (
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
		inc.Sig = atpg.NewSigCache()
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

// TestSigCacheShortCircuit: re-checking a refuted candidate hits the
// cache without touching the solver.
func TestSigCacheShortCircuit(t *testing.T) {
	nl := compileBenchmark(t, "comp")
	pm := power.Estimate(nl, power.Options{})
	cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
	inc := atpg.NewIncrementalChecker(nl)
	inc.Sig = atpg.NewSigCache()

	var refuted *transform.Substitution
	for _, s := range cands {
		v, _ := checkSub(inc, s)
		if v == atpg.NotPermissible {
			refuted = s
			break
		}
	}
	if refuted == nil {
		t.Skip("no refuted candidate on comp")
	}
	c0 := inc.Stats.Conflicts
	d0 := inc.Stats.Decisions
	if v, _ := checkSub(inc, refuted); v != atpg.NotPermissible {
		t.Fatalf("recheck verdict %v", v)
	}
	if inc.Stats.Conflicts != c0 || inc.Stats.Decisions != d0 {
		t.Fatal("cache hit still ran the solver")
	}
	hits, _, entries := inc.Sig.Stats()
	if hits == 0 || entries == 0 {
		t.Fatalf("hits=%d entries=%d", hits, entries)
	}

	// A second checker over a clone (same IDs, same topology) shares the
	// cache, mirroring the per-worker replicas of a parallel run.
	clone := nl.Clone()
	inc2 := atpg.NewIncrementalChecker(clone)
	inc2.Sig = inc.Sig
	if v, _ := checkSub(inc2, refuted); v != atpg.NotPermissible {
		t.Fatal("clone checker missed the shared cache verdict")
	}
	if inc2.Stats.Conflicts != 0 {
		t.Fatal("clone checker solved despite the cache")
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
