package expt

import (
	"fmt"
	"io"
	"strings"

	"powder/internal/circuits"
	"powder/internal/core"
	"powder/internal/power"
	"powder/internal/redundancy"
)

// BaselineRow compares plain ATPG-based redundancy removal (the paper's
// reference [1]) against POWDER on one circuit.
type BaselineRow struct {
	Circuit    string
	InitPower  float64
	RedPower   float64 // after redundancy removal only
	RedPct     float64
	PowPower   float64 // after POWDER
	PowPct     float64
	RedRemoved int
	PowApplied int
}

// RunBaseline runs the baseline comparison over the circuit set. With
// RunOptions.Parallel > 1 the circuits run concurrently; rows are
// collected in circuit order either way.
func RunBaseline(specs []circuits.Spec, opts RunOptions) ([]BaselineRow, error) {
	opts.normalize()
	rows := make([]BaselineRow, len(specs))
	errs := make([]error, len(specs))
	forEach(specs, &opts, func(i int, spec circuits.Spec) {
		row, err := baselineOne(spec, &opts)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = *row
		opts.progressf("%-10s redundancy-only %5.1f%%  POWDER %5.1f%%",
			row.Circuit, row.RedPct, row.PowPct)
	})
	for i, spec := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("expt: %s: %v", spec.Name, errs[i])
		}
	}
	return rows, nil
}

// baselineOne compares redundancy removal against POWDER on one circuit.
func baselineOne(spec circuits.Spec, opts *RunOptions) (*BaselineRow, error) {
	// Redundancy removal only.
	nlR, err := compile(spec, opts)
	if err != nil {
		return nil, err
	}
	// One workload-adjusted option set serves both arms: the two compiles
	// of the same spec share their input names, so the binding is
	// identical.
	cOpts := opts.Core
	if err := opts.applyWorkload(nlR, &cOpts); err != nil {
		return nil, err
	}
	pmInit := power.Estimate(nlR, cOpts.Power)
	initPower := pmInit.Total()
	rr, err := redundancy.Remove(nlR, redundancy.Options{})
	if err != nil {
		return nil, err
	}
	redPower := power.Estimate(nlR, cOpts.Power).Total()

	// POWDER.
	nlP, err := compile(spec, opts)
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(nlP, cOpts)
	core.RecordMetrics(opts.Metrics, res)
	if err != nil {
		return nil, err
	}

	return &BaselineRow{
		Circuit:    spec.Name,
		InitPower:  initPower,
		RedPower:   redPower,
		RedPct:     100 * (initPower - redPower) / initPower,
		PowPower:   res.Final.Power,
		PowPct:     res.PowerReductionPct(),
		RedRemoved: rr.Removed,
		PowApplied: res.Applied,
	}, nil
}

// RenderBaseline writes the comparison table.
func RenderBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintln(w, "Baseline: redundancy removal (ref [1]) vs POWDER, unconstrained")
	fmt.Fprintf(w, "%-10s %10s | %10s %6s %6s | %10s %6s %6s\n",
		"circuit", "power", "red-only", "red.%", "rmvd", "POWDER", "red.%", "subs")
	fmt.Fprintln(w, strings.Repeat("-", 80))
	sumI, sumR, sumP := 0.0, 0.0, 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.2f | %10.2f %6.1f %6d | %10.2f %6.1f %6d\n",
			r.Circuit, r.InitPower, r.RedPower, r.RedPct, r.RedRemoved,
			r.PowPower, r.PowPct, r.PowApplied)
		sumI += r.InitPower
		sumR += r.RedPower
		sumP += r.PowPower
	}
	fmt.Fprintln(w, strings.Repeat("-", 80))
	fmt.Fprintf(w, "%-10s %10.2f | %10.2f %5.1f%% %6s | %10.2f %5.1f%%\n",
		"sum", sumI, sumR, 100*(sumI-sumR)/sumI, "", sumP, 100*(sumI-sumP)/sumI)
}
