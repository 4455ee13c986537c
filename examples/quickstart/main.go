// Quickstart: build the paper's Figure 2 circuit by hand, estimate its
// power, let POWDER rewire it, and print what changed.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/transform"
)

func main() {
	// The built-in library is modelled on MCNC lib2.genlib: AND/XOR cells
	// with per-pin capacitances and linear-delay parameters.
	lib := cellib.Lib2()

	// Figure 2, circuit A: e = a*b, d = a^c, f = d*b; outputs f and e.
	nl := netlist.New("fig2", lib)
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	c, _ := nl.AddInput("c")
	e, err := nl.AddGate("e", lib.Cell("and2"), []netlist.NodeID{a, b})
	if err != nil {
		log.Fatal(err)
	}
	d, _ := nl.AddGate("d", lib.Cell("xor2"), []netlist.NodeID{a, c})
	f, _ := nl.AddGate("f", lib.Cell("and2"), []netlist.NodeID{d, b})
	if err := nl.AddOutput("f", f); err != nil {
		log.Fatal(err)
	}
	if err := nl.AddOutput("e", e); err != nil {
		log.Fatal(err)
	}

	// Estimate power: sum over stems of C(i)*E(i), exactly Eq. 1 of the
	// paper up to the constant 1/2 Vdd^2 f.
	pm := power.Estimate(nl, power.Options{})
	fmt.Printf("initial:  power %.3f, area %.0f, %d gates\n",
		pm.Total(), nl.Area(), nl.GateCount())

	// POWDER: permissible substitutions with positive power gain. The
	// run ledger records every performed substitution in apply order.
	res, err := core.Optimize(nl, core.Options{
		Transform: transform.Config{AllowInverted: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Ledger.Moves {
		fmt.Printf("   %s %s <- %s: power %.3f -> %.3f\n",
			m.Kind, m.Target, m.Source, m.PowerBefore, m.PowerAfter)
	}
	fmt.Printf("optimized: power %.3f, area %.0f, %d gates (%.1f%% power reduction)\n",
		res.Final.Power, res.Final.Area, res.Final.Gates, res.PowerReductionPct())

	// The optimized netlist is ordinary mapped BLIF.
	fmt.Println("\nresulting netlist:")
	if err := blif.Write(os.Stdout, nl); err != nil {
		log.Fatal(err)
	}
}
