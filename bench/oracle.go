package main

import (
	"fmt"
	"math"
	"math/rand"

	"powder/internal/atpg"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/power"
	"powder/internal/sim"
	"powder/internal/sta"
)

// The output oracle. Every optimization the benchmark runs, in-process or
// through powderd, passes through these checks after its timed section;
// each failed check marks the operation failed.
const (
	// exhaustiveInputs is the largest input count checked by simulating
	// every input combination.
	exhaustiveInputs = 20
	// randomWords sizes the random-vector check above that: 2^16 vectors.
	randomWords = 1 << 10
	// chunkWords bounds the simulator width of the exhaustive check, so it
	// stays small next to the engine's own memory.
	chunkWords = 256
	// powerTolerance is the largest relative difference allowed between
	// the engine's reported final power and a fresh estimate.
	powerTolerance = 1e-9
)

// engineChecks returns why one in-process engine run is wrong, or nothing.
// orig is the input netlist, final the optimized one, eq the result of the
// run's own equivalence verification.
func engineChecks(orig, final *netlist.Netlist, res *core.Result, opts core.Options, eq *atpg.EquivResult, seed int64) []string {
	var bad []string
	if res.Stopped != core.StopCompleted {
		bad = append(bad, "stopped: "+string(res.Stopped))
	}
	if msg := equivalent(orig, final, eq, seed); msg != "" {
		bad = append(bad, msg)
	}
	if est := power.Estimate(final, opts.Power).Total(); !closeTo(res.Final.Power, est) {
		bad = append(bad, fmt.Sprintf("final power %.12g, fresh estimate %.12g", res.Final.Power, est))
	}
	if opts.DelayFactor > 0 {
		want := opts.DelayFactor * sta.New(orig, 0).Delay()
		if !closeTo(res.Constraint, want) {
			bad = append(bad, fmt.Sprintf("delay constraint %.6g, expected %.6g", res.Constraint, want))
		}
		if d := sta.New(final, 0).Delay(); d > want+1e-9 {
			bad = append(bad, fmt.Sprintf("final delay %.6g exceeds constraint %.6g", d, want))
		}
	}
	return bad
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= powerTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// equivalent returns "" when final computes orig's function on every
// output (matched by name), or why not. Up to exhaustiveInputs inputs it
// simulates every input combination; above that it needs a SAT proof (eq,
// or one run here when eq is nil) and agreement on 2^16 random vectors.
// An eq that is not a proof of equivalence fails even when simulation
// agrees: the run's own verification reported something else.
func equivalent(orig, final *netlist.Netlist, eq *atpg.EquivResult, seed int64) string {
	if eq == nil && len(orig.Inputs()) > exhaustiveInputs {
		var err error
		if eq, err = atpg.Equivalent(orig, final, 0); err != nil {
			return "equivalence check: " + err.Error()
		}
	}
	if eq != nil && eq.Verdict != atpg.Permissible {
		if eq.Verdict == atpg.Aborted {
			return "equivalence inconclusive"
		}
		return fmt.Sprintf("SAT finds output %q differs", eq.DifferingOutput)
	}
	out, err := simDiffers(orig, final, seed)
	if err != nil {
		return err.Error()
	}
	if out != "" {
		return fmt.Sprintf("simulation finds output %q differs", out)
	}
	return ""
}

// simDiffers simulates a and b on identical input vectors, exhaustive up
// to exhaustiveInputs inputs and 2^16 seeded random ones above, and returns
// the first output name whose values differ.
func simDiffers(a, b *netlist.Netlist, seed int64) (string, error) {
	ins := a.Inputs()
	bIn := make([]netlist.NodeID, len(ins))
	for i, id := range ins {
		bIn[i] = b.FindNode(a.Node(id).Name())
		if bIn[i] == netlist.InvalidNode || !b.Node(bIn[i]).IsInput() {
			return "", fmt.Errorf("input %q missing from the result", a.Node(id).Name())
		}
	}
	if len(b.Inputs()) != len(ins) {
		return "", fmt.Errorf("result has %d inputs, input circuit %d", len(b.Inputs()), len(ins))
	}
	bOut := map[string]netlist.NodeID{}
	for _, po := range b.Outputs() {
		bOut[po.Name] = po.Driver
	}
	if len(bOut) != len(a.Outputs()) {
		return "", fmt.Errorf("result has %d outputs, input circuit %d", len(bOut), len(a.Outputs()))
	}
	for _, po := range a.Outputs() {
		if _, ok := bOut[po.Name]; !ok {
			return "", fmt.Errorf("output %q missing from the result", po.Name)
		}
	}

	n := len(ins)
	total := uint64(randomWords * 64)
	words := randomWords
	if n <= exhaustiveInputs {
		total = uint64(1) << uint(n)
		words = int(min(uint64(chunkWords), (total+63)/64))
	}
	sa, sb := sim.New(a, words), sim.New(b, words)
	rng := rand.New(rand.NewSource(seed))
	for base := uint64(0); base < total; base += uint64(words) * 64 {
		for i, id := range ins {
			for w := 0; w < words; w++ {
				var bits uint64
				if n <= exhaustiveInputs {
					bits = exhaustiveWord(i, base+uint64(w)*64)
				} else {
					bits = rng.Uint64()
				}
				sa.SetInputWord(id, w, bits)
				sb.SetInputWord(bIn[i], w, bits)
			}
		}
		sa.Run()
		sb.Run()
		for _, po := range a.Outputs() {
			va, vb := sa.Value(po.Driver), sb.Value(bOut[po.Name])
			for w := 0; w < words; w++ {
				mask := ^uint64(0)
				if left := total - base - uint64(w)*64; left < 64 {
					mask = uint64(1)<<left - 1
				}
				if (va[w]^vb[w])&mask != 0 {
					return po.Name, nil
				}
			}
		}
	}
	return "", nil
}

// exhaustiveWord returns the 64 values of input i over the input vectors
// first..first+63, where vector v assigns input i the bit (v>>i)&1.
func exhaustiveWord(i int, first uint64) uint64 {
	if i < 6 {
		// The low input bits cycle inside one word.
		return [6]uint64{
			0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
			0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
		}[i]
	}
	if first>>uint(i)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// relabel matches the outputs of a result read back from BLIF to the
// input circuit's outputs by position, as blif.Write emits them, and
// returns the result with the input's output names. The writer names an
// output after its driving signal, so an output whose driver changed
// comes back under another name; an output count that differs means the
// result lost or gained a port, which no renaming repairs.
func relabel(orig, result *netlist.Netlist) (*netlist.Netlist, error) {
	if len(result.Outputs()) != len(orig.Outputs()) {
		return nil, fmt.Errorf("result has %d outputs, input circuit %d", len(result.Outputs()), len(orig.Outputs()))
	}
	return rebuild(result,
		func(id netlist.NodeID) string { return result.Node(id).Name() },
		func(i int, _ netlist.PO) string { return orig.Outputs()[i].Name })
}
