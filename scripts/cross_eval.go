//go:build ignore

// cross_eval estimates a mapped BLIF netlist's power under a given
// activity model without optimizing it. With no dump the uniform
// assumption (p = 0.5 everywhere, independence toggles) is used; with a
// VCD or SAIF dump the matched inputs drive the probabilities and pin
// the measured transition densities — the binding powder -activity
// applies before a run (seq.BindActivity), so a dump that matches no
// input fails. EXPERIMENTS.md uses it to cross-evaluate the
// uniform-optimized and workload-optimized netlists under both models.
//
// Usage: go run scripts/cross_eval.go mapped.blif [activity.vcd|.saif]
package main

import (
	"fmt"
	"os"

	"powder/internal/activity"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/power"
	"powder/internal/seq"
)

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/cross_eval.go mapped.blif [activity.vcd|.saif]")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	model, err := blif.ReadModel(f, cellib.Lib2())
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	circ, err := seq.FromModel(model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	popts := power.Options{}
	label := "uniform (p=0.5, independence toggles)"
	if len(os.Args) == 3 {
		af, err := os.Open(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		prof, err := activity.Read(af)
		af.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var b *activity.Binding
		b, label, err = circ.BindActivity(prof, prof.Source)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		popts.InputProbs = b.Probs
		popts.InputToggles = b.Toggles
	}
	m := power.Estimate(circ.Core(), popts)
	fmt.Printf("%s  model: %s\n", os.Args[1], label)
	fmt.Printf("power %.3f\n", m.Total())
}
