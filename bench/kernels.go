package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/partition"
	"powder/internal/power"
	"powder/internal/sta"
	"powder/internal/transform"
)

// kernelMin is the least time each replayed kernel is measured for;
// smoke runs, which only exercise the harness, use smokeKernelMin.
const (
	kernelMin      = 200 * time.Millisecond
	smokeKernelMin = 5 * time.Millisecond
)

// topCandidates is how many of the best PG_A+PG_B candidates per circuit
// the PG_C and proof kernels replay.
const topCandidates = 64

// kernelInput is one initial netlist of a workload with the engine options
// it runs under and the bytes it was read from.
type kernelInput struct {
	nl   *netlist.Netlist
	opts core.Options
	blif []byte
	// vcd is the circuit's activity dump; workloads without a profile get
	// a uniform one, so the activity kernels run on every workload.
	vcd []byte
}

// kernelState is the per-circuit state the kernels share: the power model,
// a harvest of candidates with their PG_A+PG_B gains, and the best of them.
type kernelState struct {
	kernelInput
	pm      *power.Model
	an      *transform.Analyzer
	cands   []*transform.Substitution
	top     []*transform.Substitution
	gates   []netlist.NodeID
	profile *activity.Profile
	names   []string
}

// replayKernels times each layer's kernel on the workload's initial
// netlists, round-robin over the circuits for at least minDur, and returns
// the per-layer metrics. Nothing here mutates the netlists.
func replayKernels(ins []kernelInput, seed int64, lib *cellib.Library, minDur time.Duration) (map[string]float64, error) {
	st := make([]*kernelState, len(ins))
	for i, in := range ins {
		s := &kernelState{kernelInput: in}
		s.pm = power.Estimate(in.nl, in.opts.Power)
		s.an = transform.NewAnalyzer(in.nl, s.pm)
		s.cands = transform.Generate(in.nl, s.pm, in.opts.Transform)
		for _, c := range s.cands {
			s.an.AnalyzeAB(c)
		}
		s.top = append([]*transform.Substitution(nil), s.cands...)
		sort.SliceStable(s.top, func(a, b int) bool { return s.top[a].GainAB > s.top[b].GainAB })
		if len(s.top) > topCandidates {
			s.top = s.top[:topCandidates]
		}
		in.nl.LiveNodes(func(n *netlist.Node) {
			if n.Kind() == netlist.KindGate {
				s.gates = append(s.gates, n.ID())
			}
		})
		for _, id := range in.nl.Inputs() {
			s.names = append(s.names, in.nl.Node(id).Name())
		}
		prof, err := activity.Read(bytes.NewReader(in.vcd))
		if err != nil {
			return nil, fmt.Errorf("kernel replay: %w", err)
		}
		s.profile = prof
		st[i] = s
	}

	m := map[string]float64{}
	var kerr error
	check := func(err error) {
		if err != nil && kerr == nil {
			kerr = fmt.Errorf("kernel replay: %w", err)
		}
	}
	perCallMS := func(name string, fn func(s *kernelState)) {
		_, calls, secs := timeKernel(st, minDur, func(s *kernelState) float64 { fn(s); return 1 })
		m[name] = secs / float64(calls) * 1e3
	}
	perSecond := func(name string, fn func(s *kernelState) float64) {
		ops, _, secs := timeKernel(st, minDur, fn)
		m[name] = ops / secs
	}

	perCallMS("power.estimate_ms", func(s *kernelState) { power.Estimate(s.nl, s.opts.Power) })
	perCallMS("power.heldout_estimate_ms", func(s *kernelState) { power.Estimate(s.nl, heldoutOptions(s.opts.Power, seed)) })
	perCallMS("transform.generate_ms", func(s *kernelState) { transform.Generate(s.nl, s.pm, s.opts.Transform) })
	perSecond("transform.ab_per_s", func(s *kernelState) float64 {
		for _, c := range s.cands {
			s.an.AnalyzeAB(c)
		}
		return float64(len(s.cands))
	})
	perSecond("sim.stem_obs_per_s", func(s *kernelState) float64 {
		for _, id := range s.gates {
			s.pm.Sim().StemObservability(id)
		}
		return float64(len(s.gates))
	})
	perSecond("transform.c_per_s", func(s *kernelState) float64 {
		for _, c := range s.top {
			s.an.AnalyzeC(c)
		}
		return float64(len(s.top))
	})
	// A fresh checker per call: a reused one would answer repeats from
	// its learned clauses and refuted-miter cache.
	permissible, checks := 0, 0
	perSecond("atpg.checks_per_s", func(s *kernelState) float64 {
		ch := atpg.NewIncrementalChecker(s.nl)
		for _, c := range s.top {
			var v atpg.Verdict
			if c.IsBranchSub() {
				v, _ = ch.CheckBranch(c.G, c.Pin, c.Src)
			} else {
				v, _ = ch.CheckStem(c.A, c.Src)
			}
			checks++
			if v == atpg.Permissible {
				permissible++
			}
		}
		return float64(len(s.top))
	})
	m["atpg.permissible_frac"] = ratio(permissible, checks)
	perCallMS("sta.analyze_ms", func(s *kernelState) { sta.New(s.nl, 0) })
	regions, decomps := 0, 0
	perCallMS("partition.decompose_ms", func(s *kernelState) {
		regions += len(partition.Decompose(s.nl, 2).Regions)
		decomps++
	})
	m["partition.regions"] = float64(regions) / float64(decomps)
	perCallMS("blif.write_ms", func(s *kernelState) {
		check(blif.Write(io.Discard, s.nl))
	})
	perSecond("blif.read_mb_per_s", func(s *kernelState) float64 {
		_, err := blif.Read(bytes.NewReader(s.blif), lib)
		check(err)
		return float64(len(s.blif)) / 1e6
	})
	perCallMS("netlist.structhash_ms", func(s *kernelState) { s.nl.StructuralHash() })
	perSecond("activity.read_mb_per_s", func(s *kernelState) float64 {
		_, err := activity.Read(bytes.NewReader(s.vcd))
		check(err)
		return float64(len(s.vcd)) / 1e6
	})
	perCallMS("activity.bind_ms", func(s *kernelState) {
		_, err := s.profile.Bind(s.names)
		check(err)
	})
	return m, kerr
}

// timeKernel calls fn round-robin over the circuits, whole rounds at a
// time, until minDur has passed; it returns the summed work fn reported,
// the call count and the elapsed seconds.
func timeKernel(st []*kernelState, minDur time.Duration, fn func(s *kernelState) float64) (ops float64, calls int, secs float64) {
	start := time.Now()
	for time.Since(start) < minDur {
		for _, s := range st {
			ops += fn(s)
			calls++
		}
	}
	return ops, calls, time.Since(start).Seconds()
}

// heldoutOptions are the power options of the held-out re-estimate: the
// run's activity on 256 words of vectors the optimizer never saw.
func heldoutOptions(run power.Options, seed int64) power.Options {
	return power.Options{
		Words:        256,
		Seed:         seed + 1000003,
		InputProbs:   run.InputProbs,
		InputToggles: run.InputToggles,
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
