// Package expt regenerates the paper's experiments: Table 1 (per-circuit
// power/area/delay before and after POWDER, without and with delay
// constraints), Table 2 (contribution of the substitution classes to power
// and area reduction), and Figure 6 (the power-delay trade-off).
package expt

import (
	"context"
	"fmt"
	"time"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/redundancy"
	"powder/internal/service"
	"powder/internal/synth"
	"powder/internal/transform"
)

// RunOptions configures an experiment run.
type RunOptions struct {
	// Library defaults to cellib.Lib2().
	Library *cellib.Library
	// Core is the POWDER option template (delay fields are managed by the
	// experiment drivers, and inverted-source substitutions are always on:
	// Core.Transform.AllowInverted is set for every run).
	Core core.Options
	// MapArea switches the initial mapping to pure area cost; the default
	// is the power-aware mapper (POSE-like initial circuits).
	MapArea bool
	// InputProbs maps primary-input names to signal probabilities. Each
	// circuit's inputs found in the map run at that probability, the rest
	// at the uniform 0.5; names that match no input of a given circuit
	// are skipped, so one probs file can cover a heterogeneous suite.
	// Applied to the combinational experiments (Table 1/2, baseline,
	// Figure 6).
	InputProbs map[string]float64
	// Activity, when non-nil, replaces the uniform assumption with a
	// measured workload: every circuit's primary inputs are bound onto
	// the profile (case/escape-aware name matching), matched
	// probabilities drive the power model and matched toggle densities
	// pin E(i) at the inputs. Each run's ledger names the workload.
	// Mutually exclusive with InputProbs.
	Activity *activity.Profile
	// PreOptimize runs ATPG-based redundancy removal on every initial
	// circuit before measuring it, approximating the POSE-grade (already
	// area-optimized) starting points of the paper's experiments. With it,
	// POWDER's gains shift from dominated-region removal (OS2) toward
	// rewiring (IS2/OS3), as in the paper's Table 2.
	PreOptimize bool
	// Parallel, when > 1, runs the per-circuit experiments concurrently
	// on a service.Pool of that many workers. Results are collected by
	// circuit index, so tables and reports render in the same order as a
	// sequential run; only the interleaving of progress lines differs.
	Parallel int
	// Metrics, when non-nil, receives every engine run's result through
	// core.RecordMetrics (seq.RecordMetrics for the sequential family),
	// stopped and failed runs included.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a hierarchical span trace of every
	// Table 1 engine run: one "table1-free"/"table1-constr" root per
	// circuit with the engine's optimize/harvest/prove/apply spans
	// nested below (powbench -trace-perfetto). With Parallel > 1 the
	// roots of concurrent circuits interleave on the shared trace.
	Tracer *trace.Tracer
	// Progress, when non-nil, receives one line per circuit step: the
	// harness's only progress report.
	Progress func(string)

	mapMode synth.CostMode
}

// progressf reports one experiment step to the Progress callback.
func (o *RunOptions) progressf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

func (o *RunOptions) normalize() {
	if o.Library == nil {
		o.Library = cellib.Lib2()
	}
	o.Core.Transform.AllowInverted = true
	o.mapMode = synth.CostPower
	if o.MapArea {
		o.mapMode = synth.CostArea
	}
}

// Table1Row is one circuit's row of the paper's Table 1.
type Table1Row struct {
	Circuit string
	Gates   int

	InitPower float64
	InitArea  float64
	InitDelay float64

	FreePower  float64 // POWDER, no delay constraints
	FreeRedPct float64
	FreeArea   float64

	ConstrPower  float64 // POWDER with delay constraint = initial delay
	ConstrRedPct float64
	ConstrArea   float64
	ConstrDelay  float64
	CPUSeconds   float64

	// Free and Constr hold the observability detail of the two runs
	// (phase timings, check effort, reject reasons) for the JSON run
	// report; the text tables ignore them.
	Free   RunDetail
	Constr RunDetail
}

// RunDetail is the per-run observability summary of one core.Optimize
// call, serialized into the powbench JSON run report.
type RunDetail struct {
	Applied        int                  `json:"applied"`
	Harvests       int                  `json:"harvests"`
	Candidates     int                  `json:"candidates"`
	RuntimeSeconds float64              `json:"runtime_seconds"`
	Phases         map[string]float64   `json:"phases,omitempty"`
	Checks         atpg.CheckStats      `json:"checks"`
	Rejects        map[string]int       `json:"rejects,omitempty"`
	Escalations    core.EscalationStats `json:"escalations"`
	Stopped        string               `json:"stopped,omitempty"`
	// Parallel carries the region-engine scheduler statistics (worker
	// utilization, commit share, conflict ledger) of a -par > 1 run; nil
	// for one-region runs.
	Parallel *core.ParallelStats `json:"parallel,omitempty"`
	// Ledger carries the run-ledger totals (entry slices stripped): the
	// predicted and realized gain sums and the per-reason reject counts.
	Ledger *obs.LedgerSummary `json:"ledger,omitempty"`
}

// detailOf extracts the observability summary of one run result.
func detailOf(res *core.Result) RunDetail {
	d := RunDetail{
		Applied:        res.Applied,
		Harvests:       res.Harvests,
		Candidates:     res.Candidates,
		RuntimeSeconds: res.Runtime.Seconds(),
		Phases:         res.Phases.Map(),
		Checks:         res.CheckStats,
		Rejects:        res.Rejects,
		Escalations:    res.Escalation,
		Ledger:         res.Ledger.Brief(),
		Parallel:       res.Parallel,
	}
	if res.StoppedEarly() {
		d.Stopped = string(res.Stopped)
	}
	return d
}

// Suite holds the results of the Table 1 + Table 2 experiment.
type Suite struct {
	Rows []Table1Row
	// Class aggregates the per-class statistics over the unconstrained
	// runs (the paper computes Table 2 from those).
	Class map[transform.Kind]*core.ClassStats
	// Totals.
	SumInitPower, SumFreePower, SumConstrPower float64
	SumInitArea, SumFreeArea, SumConstrArea    float64
	SumInitDelay, SumConstrDelay               float64
}

// FreeRedPct returns the overall unconstrained power reduction percentage.
func (s *Suite) FreeRedPct() float64 {
	return 100 * (s.SumInitPower - s.SumFreePower) / s.SumInitPower
}

// ConstrRedPct returns the overall constrained power reduction percentage.
func (s *Suite) ConstrRedPct() float64 {
	return 100 * (s.SumInitPower - s.SumConstrPower) / s.SumInitPower
}

// FreeAreaPct returns the overall area change of the unconstrained runs.
func (s *Suite) FreeAreaPct() float64 {
	return 100 * (s.SumInitArea - s.SumFreeArea) / s.SumInitArea
}

// ConstrDelayPct returns the overall delay change of the constrained runs.
func (s *Suite) ConstrDelayPct() float64 {
	return 100 * (s.SumInitDelay - s.SumConstrDelay) / s.SumInitDelay
}

// compile builds the initial mapped circuit for a spec.
func compile(spec circuits.Spec, opts *RunOptions) (*netlist.Netlist, error) {
	nl, err := synth.Compile(spec.Build(), opts.Library, synth.Options{Mode: opts.mapMode})
	if err != nil {
		return nil, err
	}
	if opts.PreOptimize {
		if _, err := redundancy.Remove(nl, redundancy.Options{}); err != nil {
			return nil, err
		}
	}
	return nl, nil
}

// applyWorkload folds RunOptions.InputProbs / RunOptions.Activity into
// one engine run's power options, resolving names against the compiled
// circuit's primary inputs. An activity run is labeled in the ledger as
// powder and powderd label theirs, with the dump's format as its source.
// A dump that matches none of a circuit's inputs is not an error here:
// one dump spans a suite of different circuits.
func (o *RunOptions) applyWorkload(nl *netlist.Netlist, copts *core.Options) error {
	if o.InputProbs == nil && o.Activity == nil {
		return nil
	}
	inputs := nl.Inputs()
	names := make([]string, len(inputs))
	for i, id := range inputs {
		names[i] = nl.Node(id).Name()
	}
	if o.Activity != nil {
		b, err := o.Activity.Bind(names)
		if err != nil {
			return fmt.Errorf("activity: %v", err)
		}
		copts.Power.InputProbs = b.Probs
		copts.Power.InputToggles = b.Toggles
		copts.Activity = b.Label(o.Activity.Source, o.Activity)
		return nil
	}
	probs := make([]float64, len(names))
	for i, n := range names {
		p, ok := o.InputProbs[n]
		if !ok {
			p = 0.5
		}
		probs[i] = p
	}
	copts.Power.InputProbs = probs
	return nil
}

// forEach runs fn once per spec — sequentially, or fanned out over a
// service.Pool when opts.Parallel > 1. fn receives the spec index so
// callers collect results in deterministic circuit order. It is generic
// so the combinational (circuits.Spec) and sequential (circuits.SeqSpec)
// suites share the fan-out machinery.
func forEach[S any](specs []S, opts *RunOptions, fn func(i int, spec S)) {
	if opts.Parallel > 1 {
		pool := service.NewPool(opts.Parallel, 0)
		for i, spec := range specs {
			i, spec := i, spec
			pool.Submit(func() { fn(i, spec) })
		}
		pool.Close()
		return
	}
	for i, spec := range specs {
		fn(i, spec)
	}
}

// RunSuite optimizes every circuit twice (unconstrained and delay-
// constrained) and assembles Table 1 and Table 2 data. With
// RunOptions.Parallel > 1 the circuits run concurrently; the assembled
// suite is identical to a sequential run's (rows and class aggregates
// are collected in circuit order) apart from the CPUSeconds wall-clock
// columns.
func RunSuite(specs []circuits.Spec, opts RunOptions) (*Suite, error) {
	opts.normalize()
	suite := &Suite{Class: map[transform.Kind]*core.ClassStats{
		transform.OS2: {}, transform.IS2: {}, transform.OS3: {}, transform.IS3: {},
	}}
	rows := make([]*Table1Row, len(specs))
	classes := make([]map[transform.Kind]*core.ClassStats, len(specs))
	errs := make([]error, len(specs))
	forEach(specs, &opts, func(i int, spec circuits.Spec) {
		rows[i], classes[i], errs[i] = runOne(spec, &opts)
		if errs[i] != nil {
			return
		}
		row := rows[i]
		opts.progressf("%-10s power %8.3f -> %8.3f (free %5.1f%%) / %8.3f (constr %5.1f%%)  %.1fs",
			row.Circuit, row.InitPower, row.FreePower, row.FreeRedPct, row.ConstrPower, row.ConstrRedPct, row.CPUSeconds)
	})
	for i, spec := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("expt: %s: %v", spec.Name, errs[i])
		}
		row := rows[i]
		suite.Rows = append(suite.Rows, *row)
		for k, cs := range classes[i] {
			agg := suite.Class[k]
			agg.Count += cs.Count
			agg.PowerGain += cs.PowerGain
			agg.AreaDelta += cs.AreaDelta
		}
		suite.SumInitPower += row.InitPower
		suite.SumFreePower += row.FreePower
		suite.SumConstrPower += row.ConstrPower
		suite.SumInitArea += row.InitArea
		suite.SumFreeArea += row.FreeArea
		suite.SumConstrArea += row.ConstrArea
		suite.SumInitDelay += row.InitDelay
		suite.SumConstrDelay += row.ConstrDelay
	}
	return suite, nil
}

func runOne(spec circuits.Spec, opts *RunOptions) (*Table1Row, map[transform.Kind]*core.ClassStats, error) {
	ctx := trace.NewContext(context.Background(), opts.Tracer)

	// Unconstrained run.
	nlFree, err := compile(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	freeOpts := opts.Core
	freeOpts.DelayConstraint = 0
	freeOpts.DelayFactor = 0
	if err := opts.applyWorkload(nlFree, &freeOpts); err != nil {
		return nil, nil, err
	}
	fctx, fSpan := trace.StartSpan(ctx, "table1-free")
	fSpan.SetAttr("circuit", spec.Name)
	resFree, err := core.OptimizeCtx(fctx, nlFree, freeOpts)
	fSpan.End()
	core.RecordMetrics(opts.Metrics, resFree)
	if err != nil {
		return nil, nil, err
	}

	// Constrained run on a fresh copy of the initial circuit.
	nlC, err := compile(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	cOpts := opts.Core
	cOpts.DelayFactor = 1.0
	if err := opts.applyWorkload(nlC, &cOpts); err != nil {
		return nil, nil, err
	}
	cctx, cSpan := trace.StartSpan(ctx, "table1-constr")
	cSpan.SetAttr("circuit", spec.Name)
	resC, err := core.OptimizeCtx(cctx, nlC, cOpts)
	cSpan.End()
	core.RecordMetrics(opts.Metrics, resC)
	if err != nil {
		return nil, nil, err
	}
	cpu := time.Since(start).Seconds()

	row := &Table1Row{
		Circuit:      spec.Name,
		Gates:        resFree.Initial.Gates,
		InitPower:    resFree.Initial.Power,
		InitArea:     resFree.Initial.Area,
		InitDelay:    resFree.InitialDelay,
		FreePower:    resFree.Final.Power,
		FreeRedPct:   resFree.PowerReductionPct(),
		FreeArea:     resFree.Final.Area,
		ConstrPower:  resC.Final.Power,
		ConstrRedPct: resC.PowerReductionPct(),
		ConstrArea:   resC.Final.Area,
		ConstrDelay:  resC.FinalDelay,
		CPUSeconds:   cpu,
		Free:         detailOf(resFree),
		Constr:       detailOf(resC),
	}
	return row, resFree.ByClass, nil
}

// TradeoffPoint is one point of the paper's Figure 6.
type TradeoffPoint struct {
	// ConstraintPct is the allowed delay increase in percent (the labels
	// next to the paper's curve).
	ConstraintPct int
	// RelPower is total optimized power / total initial power.
	RelPower float64
	// RelDelay is total final delay / total initial delay.
	RelDelay float64
}

// DefaultTradeoffPcts matches the constraint labels of the paper's
// Figure 6.
var DefaultTradeoffPcts = []int{0, 5, 10, 15, 20, 30, 40, 50, 60, 80, 100, 150, 200}

// RunTradeoff sweeps delay constraints over the circuit subset and returns
// the relative power/delay curve (Figure 6).
func RunTradeoff(specs []circuits.Spec, pcts []int, opts RunOptions) ([]TradeoffPoint, error) {
	opts.normalize()
	if pcts == nil {
		pcts = DefaultTradeoffPcts
	}
	var points []TradeoffPoint
	for _, pct := range pcts {
		sumInitP, sumInitD, sumP, sumD := 0.0, 0.0, 0.0, 0.0
		for _, spec := range specs {
			nl, err := compile(spec, &opts)
			if err != nil {
				return nil, fmt.Errorf("expt: %s: %v", spec.Name, err)
			}
			cOpts := opts.Core
			cOpts.DelayFactor = 1.0 + float64(pct)/100
			if err := opts.applyWorkload(nl, &cOpts); err != nil {
				return nil, fmt.Errorf("expt: %s: %v", spec.Name, err)
			}
			res, err := core.Optimize(nl, cOpts)
			core.RecordMetrics(opts.Metrics, res)
			if err != nil {
				return nil, fmt.Errorf("expt: %s: %v", spec.Name, err)
			}
			sumInitP += res.Initial.Power
			sumInitD += res.InitialDelay
			sumP += res.Final.Power
			sumD += res.FinalDelay
		}
		p := TradeoffPoint{
			ConstraintPct: pct,
			RelPower:      sumP / sumInitP,
			RelDelay:      sumD / sumInitD,
		}
		points = append(points, p)
		opts.progressf("constraint +%3d%%: relative power %.3f, relative delay %.3f",
			p.ConstraintPct, p.RelPower, p.RelDelay)
	}
	return points, nil
}
