// ATPG: use the test-generation engine directly — enumerate stuck-at
// faults, grade the random-vector coverage with the fault simulator, run
// PODEM on the undetected remainder, and report which faults are provably
// redundant (the don't-care slack POWDER's substitutions exploit).
//
// Run with: go run ./examples/atpg
package main

import (
	"fmt"
	"log"

	"powder/internal/atpg"
	"powder/internal/cellib"
	"powder/internal/netlist"
	"powder/internal/sim"
)

func main() {
	lib := cellib.Lib2()

	// A circuit with classic redundancy: y = a + a*b (the AND is dead
	// logic) next to a clean XOR cone.
	nl := netlist.New("demo", lib)
	a, _ := nl.AddInput("a")
	b, _ := nl.AddInput("b")
	c, _ := nl.AddInput("c")
	g, _ := nl.AddGate("g", lib.Cell("and2"), []netlist.NodeID{a, b})
	y, _ := nl.AddGate("y", lib.Cell("or2"), []netlist.NodeID{a, g})
	x, _ := nl.AddGate("x", lib.Cell("xor2"), []netlist.NodeID{y, c})
	if err := nl.AddOutput("x", x); err != nil {
		log.Fatal(err)
	}

	// 256 random sample vectors.
	s := sim.New(nl, 4)
	s.SetInputsRandom(1, nil)
	s.Run()

	faults := atpg.AllFaults(nl)
	fs := atpg.NewFaultSim(s)
	detected, undetected := fs.Coverage(faults)
	fmt.Printf("fault list: %d faults, %d detected by 256 random vectors\n",
		len(faults), detected)

	for _, f := range undetected {
		vec, outcome := atpg.GenerateTest(nl, f, 0)
		switch outcome {
		case atpg.TestFound:
			fmt.Printf("  %-12v PODEM test: %v\n", f, vec)
		case atpg.Untestable:
			fmt.Printf("  %-12v REDUNDANT (no test exists)\n", f)
		default:
			fmt.Printf("  %-12v aborted\n", f)
		}
	}

	// The same engine answers substitution permissibility: rewiring y's
	// second pin from g to a is permissible exactly because g's faults are
	// unobservable.
	checker := atpg.NewIncrementalChecker(nl)
	verdict, _ := checker.CheckBranch(y, 1, atpg.Source{B: a, C: netlist.InvalidNode})
	fmt.Printf("\nIS2: rewire y.pin1 (g) <- a: %v\n", verdict)
	if verdict == atpg.Permissible {
		fmt.Println("   ...which is how POWDER would delete the redundant AND gate.")
	}
}
