package expt

import (
	"fmt"
	"io"
	"strings"
	"time"

	"powder/internal/circuits"
	"powder/internal/redundancy"
	"powder/internal/seq"
)

// SeqRow is one sequential circuit's result: the steady-state fixpoint
// that seeded the power model plus the core engine's outcome at the
// register cut.
type SeqRow struct {
	Circuit string `json:"circuit"`
	Latches int    `json:"latches"`
	Gates   int    `json:"gates"`

	// FixIters/FixResidual describe the state-probability fixpoint.
	FixIters    int     `json:"fixpoint_iterations"`
	FixResidual float64 `json:"fixpoint_residual"`

	InitPower  float64 `json:"init_power"`
	FinalPower float64 `json:"final_power"`
	RedPct     float64 `json:"reduction_pct"`
	InitArea   float64 `json:"init_area"`
	FinalArea  float64 `json:"final_area"`
	Applied    int     `json:"applied"`
	CPUSeconds float64 `json:"cpu_seconds"`
}

// SeqSuite holds a sequential-family run.
type SeqSuite struct {
	Rows []SeqRow
	// Totals.
	SumInitPower, SumFinalPower float64
	SumInitArea, SumFinalArea   float64
}

// RedPct returns the overall power reduction percentage.
func (s *SeqSuite) RedPct() float64 {
	return 100 * (s.SumInitPower - s.SumFinalPower) / s.SumInitPower
}

// RunSeqSuite optimizes every sequential circuit of the family:
// steady-state probability fixpoint, then the unconstrained POWDER flow
// on the register-cut core. RunOptions.Parallel fans circuits out exactly
// as RunSuite does.
func RunSeqSuite(specs []circuits.SeqSpec, opts RunOptions) (*SeqSuite, error) {
	opts.normalize()
	suite := &SeqSuite{}
	rows := make([]*SeqRow, len(specs))
	errs := make([]error, len(specs))
	forEach(specs, &opts, func(i int, spec circuits.SeqSpec) {
		rows[i], errs[i] = runOneSeq(spec, &opts)
		if errs[i] != nil {
			return
		}
		row := rows[i]
		opts.progressf("%-10s %2d latches, fixpoint %3d iters, power %8.3f -> %8.3f (%5.1f%%)  %.1fs",
			row.Circuit, row.Latches, row.FixIters, row.InitPower, row.FinalPower, row.RedPct, row.CPUSeconds)
	})
	for i, spec := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("expt: %s: %v", spec.Name, errs[i])
		}
		row := rows[i]
		suite.Rows = append(suite.Rows, *row)
		suite.SumInitPower += row.InitPower
		suite.SumFinalPower += row.FinalPower
		suite.SumInitArea += row.InitArea
		suite.SumFinalArea += row.FinalArea
	}
	return suite, nil
}

func runOneSeq(spec circuits.SeqSpec, opts *RunOptions) (*SeqRow, error) {
	m, err := spec.Build(opts.Library)
	if err != nil {
		return nil, err
	}
	c, err := seq.FromModel(m)
	if err != nil {
		return nil, err
	}
	if opts.PreOptimize {
		// The cut anchors the next-state cones as POs, so combinational
		// redundancy removal is as safe here as on a pure netlist.
		if _, err := redundancy.Remove(c.Core(), redundancy.Options{}); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	sOpts := seq.Options{Core: opts.Core}
	sOpts.Core.DelayConstraint = 0
	sOpts.Core.DelayFactor = 0
	res, err := seq.Optimize(c, sOpts)
	seq.RecordMetrics(opts.Metrics, res, err)
	if err != nil {
		return nil, err
	}
	return &SeqRow{
		Circuit:     spec.Name,
		Latches:     c.NumLatches(),
		Gates:       res.Core.Initial.Gates,
		FixIters:    res.Fixpoint.Iterations,
		FixResidual: res.Fixpoint.Residual,
		InitPower:   res.Core.Initial.Power,
		FinalPower:  res.Core.Final.Power,
		RedPct:      res.Core.PowerReductionPct(),
		InitArea:    res.Core.Initial.Area,
		FinalArea:   res.Core.Final.Area,
		Applied:     res.Core.Applied,
		CPUSeconds:  time.Since(start).Seconds(),
	}, nil
}

// RenderSeqTable writes the sequential-family results.
func RenderSeqTable(w io.Writer, s *SeqSuite) {
	fmt.Fprintln(w, "Sequential family: POWDER at the register cut (steady-state probabilities)")
	fmt.Fprintf(w, "%-10s %7s %6s | %8s %9s | %9s %9s %6s %6s %7s\n",
		"circuit", "latches", "gates", "fix.iter", "residual", "init pow", "final pow", "red.%", "subs", "CPU[s]")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-10s %7d %6d | %8d %9.2e | %9.3f %9.3f %6.1f %6d %7.1f\n",
			r.Circuit, r.Latches, r.Gates, r.FixIters, r.FixResidual,
			r.InitPower, r.FinalPower, r.RedPct, r.Applied, r.CPUSeconds)
	}
	fmt.Fprintln(w, strings.Repeat("-", 96))
	fmt.Fprintf(w, "%-10s %7s %6s | %8s %9s | %9.3f %9.3f %5.1f%%\n",
		"sum", "", "", "", "", s.SumInitPower, s.SumFinalPower, s.RedPct())
}
