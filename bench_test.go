// Package bench holds the benchmark harness of the reproduction: one
// testing.B benchmark per paper table/figure (running representative
// subsets; `go run ./cmd/powbench -all` regenerates the full tables), plus
// ablation benches for the design choices called out in DESIGN.md and
// micro-benchmarks of the hot kernels.
package bench

import (
	"testing"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/core"
	"powder/internal/expt"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/redundancy"
	"powder/internal/resize"
	"powder/internal/sim"
	"powder/internal/synth"
	"powder/internal/transform"
)

// compileCircuit builds the initial mapped netlist of a named benchmark.
func compileCircuit(b *testing.B, name string) *netlist.Netlist {
	b.Helper()
	spec, err := circuits.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := synth.Compile(spec.Build(), cellib.Lib2(), synth.Options{Mode: synth.CostPower})
	if err != nil {
		b.Fatal(err)
	}
	return nl
}

func specsOf(b *testing.B, names ...string) []circuits.Spec {
	b.Helper()
	var out []circuits.Spec
	for _, n := range names {
		s, err := circuits.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// --- Table 1: per-circuit POWDER runs (unconstrained and constrained) ---

func benchTable1Row(b *testing.B, name string) {
	base := compileCircuit(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl := base.Clone()
		res, err := core.Optimize(nl, core.Options{
			Transform: transform.Config{AllowInverted: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		nlC := base.Clone()
		resC, err := core.Optimize(nlC, core.Options{
			DelayFactor: 1.0,
			Transform:   transform.Config{AllowInverted: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PowerReductionPct(), "red%")
			b.ReportMetric(resC.PowerReductionPct(), "constr_red%")
		}
	}
}

func BenchmarkTable1_clip(b *testing.B)   { benchTable1Row(b, "clip") }
func BenchmarkTable1_rd84(b *testing.B)   { benchTable1Row(b, "rd84") }
func BenchmarkTable1_t481(b *testing.B)   { benchTable1Row(b, "t481") }
func BenchmarkTable1_9sym(b *testing.B)   { benchTable1Row(b, "9sym") }
func BenchmarkTable1_misex3(b *testing.B) { benchTable1Row(b, "misex3") }
func BenchmarkTable1_ttt2(b *testing.B)   { benchTable1Row(b, "ttt2") }

// BenchmarkTable1Suite runs the whole Table 1 pipeline (both optimization
// modes, totals, per-class stats) on a representative subset.
func BenchmarkTable1Suite(b *testing.B) {
	specs := specsOf(b, "clip", "rd84", "t481", "frg1", "c8")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, err := expt.RunSuite(specs, expt.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(suite.FreeRedPct(), "red%")
		}
	}
}

// --- Table 2: per-class contribution accounting ---

func BenchmarkTable2(b *testing.B) {
	specs := specsOf(b, "t481", "ttt2", "misex3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, err := expt.RunSuite(specs, expt.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0.0
			for _, cs := range suite.Class {
				total += cs.PowerGain
			}
			if total > 0 {
				b.ReportMetric(100*suite.Class[transform.OS2].PowerGain/total, "OS2%")
				b.ReportMetric(100*suite.Class[transform.IS2].PowerGain/total, "IS2%")
			}
		}
	}
}

// --- Figure 6: power-delay trade-off sweep ---

func BenchmarkFigure6(b *testing.B) {
	specs := specsOf(b, "clip", "t481", "rd84")
	pcts := []int{0, 30, 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := expt.RunTradeoff(specs, pcts, expt.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(points[0].RelPower, "relP@0%")
			b.ReportMetric(points[len(points)-1].RelPower, "relP@100%")
		}
	}
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationPreselect vs NoPreselect measures the CPU saving of the
// paper's PG_A+PG_B pre-selection before the expensive PG_C reestimation.
func BenchmarkAblationPreselect(b *testing.B) {
	base := compileCircuit(b, "misex3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(base.Clone(), core.Options{
			Transform: transform.Config{AllowInverted: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoPreselect(b *testing.B) {
	base := compileCircuit(b, "misex3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(base.Clone(), core.Options{
			DisablePreselect: true,
			Transform:        transform.Config{AllowInverted: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRepeat1/20 measures the effect of the paper's `repeat`
// parameter (candidate-harvest reuse).
func BenchmarkAblationRepeat1(b *testing.B) {
	base := compileCircuit(b, "ttt2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(base.Clone(), core.Options{
			Repeat:    1,
			Transform: transform.Config{AllowInverted: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRepeat20(b *testing.B) {
	base := compileCircuit(b, "ttt2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(base.Clone(), core.Options{
			Repeat:    20,
			Transform: transform.Config{AllowInverted: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMinGain implements the paper's Section 4.2 suggestion:
// terminate once per-substitution gains fall below a threshold, trading a
// little quality for CPU time. Compare against the default run.
func BenchmarkAblationMinGainThreshold(b *testing.B) {
	base := compileCircuit(b, "spla")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Optimize(base.Clone(), core.Options{
			MinGain:   0.05, // stop early: ignore sub-0.05 gains
			Transform: transform.Config{AllowInverted: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PowerReductionPct(), "red%")
		}
	}
}

// BenchmarkResize measures the gate re-sizing pass (flow extension).
func BenchmarkResize(b *testing.B) {
	base := compileCircuit(b, "ttt2")
	// Create resize opportunity: let POWDER stretch the delay first.
	if _, err := core.Optimize(base, core.Options{
		Transform: transform.Config{AllowInverted: true},
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resize.Optimize(base.Clone(), resize.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlitchEstimate measures the timed (glitch-aware) power
// estimator extension.
func BenchmarkGlitchEstimate(b *testing.B) {
	nl := compileCircuit(b, "ttt2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := power.GlitchEstimate(nl, 128, 1, nil)
		if i == 0 {
			b.ReportMetric(100*rep.GlitchFraction(), "glitch%")
		}
	}
}

// BenchmarkEquivalenceCheck measures the full-circuit SAT verification.
func BenchmarkEquivalenceCheck(b *testing.B) {
	nl := compileCircuit(b, "misex3")
	opt := nl.Clone()
	if _, err := core.Optimize(opt, core.Options{
		Transform: transform.Config{AllowInverted: true},
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := atpg.Equivalent(nl, opt, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != atpg.Permissible {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkBaselineRedundancyRemoval measures the classic ATPG-based
// redundancy removal (the paper's reference [1]) as a baseline: how much
// power does plain redundancy removal recover compared with POWDER?
func BenchmarkBaselineRedundancyRemoval(b *testing.B) {
	base := compileCircuit(b, "spla")
	pmBase := power.Estimate(base, power.Options{})
	initial := pmBase.Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl := base.Clone()
		if _, err := redundancy.Remove(nl, redundancy.Options{}); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pm := power.Estimate(nl, power.Options{})
			b.ReportMetric(100*(initial-pm.Total())/initial, "red%")
		}
	}
}

// --- Micro-benchmarks of the hot kernels ---

func BenchmarkKernelSimulation(b *testing.B) {
	nl := compileCircuit(b, "spla")
	s := sim.New(nl, 64)
	s.SetInputsRandom(1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}

func BenchmarkKernelObservability(b *testing.B) {
	nl := compileCircuit(b, "ttt2")
	s := sim.New(nl, 64)
	s.SetInputsRandom(1, nil)
	s.Run()
	targets := nl.TopoOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StemObservability(targets[i%len(targets)])
	}
}

func BenchmarkKernelCandidateGen(b *testing.B) {
	nl := compileCircuit(b, "ttt2")
	pm := power.Estimate(nl, power.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkKernelPermissibilityCheck(b *testing.B) {
	nl := compileCircuit(b, "ttt2")
	pm := power.Estimate(nl, power.Options{})
	cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	// One checker for the whole loop, as in a worker's run of rejections:
	// repeats reuse its base encoding and learned clauses.
	checker := atpg.NewIncrementalChecker(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cands[i%len(cands)]
		if s.IsBranchSub() {
			checker.CheckBranch(s.G, s.Pin, s.Src)
		} else {
			checker.CheckStem(s.A, s.Src)
		}
	}
}

func BenchmarkKernelPODEM(b *testing.B) {
	nl := compileCircuit(b, "rd84")
	faults := atpg.AllFaults(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := faults[i%len(faults)]
		atpg.GenerateTest(nl, f, 0)
	}
}

func BenchmarkKernelFaultSim(b *testing.B) {
	nl := compileCircuit(b, "rd84")
	s := sim.New(nl, 16)
	s.SetInputsRandom(1, nil)
	s.Run()
	fs := atpg.NewFaultSim(s)
	faults := atpg.AllFaults(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Detects(faults[i%len(faults)])
	}
}

func BenchmarkKernelTechMapping(b *testing.B) {
	spec, err := circuits.ByName("apex1")
	if err != nil {
		b.Fatal(err)
	}
	d := spec.Build()
	lib := cellib.Lib2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Compile(d, lib, synth.Options{Mode: synth.CostPower}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelPowerEstimate(b *testing.B) {
	nl := compileCircuit(b, "spla")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm := power.Estimate(nl, power.Options{})
		_ = pm.Total()
	}
}

func BenchmarkKernelGainAnalysis(b *testing.B) {
	nl := compileCircuit(b, "ttt2")
	pm := power.Estimate(nl, power.Options{})
	an := transform.NewAnalyzer(nl, pm)
	cands := transform.Generate(nl, pm, transform.Config{AllowInverted: true})
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cands[i%len(cands)]
		an.AnalyzeAB(s)
		an.AnalyzeC(s)
	}
}

// BenchmarkKernelABAnalysis times PG_A+PG_B alone over every harvested
// candidate of spla, one of the heavy-seq circuits. The engine analyzes
// each candidate once per harvest and, after an apply, again only if the
// apply may have moved its gain (DESIGN.md §5), so this rate times the
// kernel, not its share of the engine.
func BenchmarkKernelABAnalysis(b *testing.B) {
	nl := compileCircuit(b, "spla")
	pm := power.Estimate(nl, power.Options{})
	an := transform.NewAnalyzer(nl, pm)
	cands := transform.Generate(nl, pm, transform.Config{})
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.AnalyzeAB(cands[i%len(cands)])
	}
}
