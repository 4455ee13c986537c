package activity

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"powder/internal/netlist"
	"powder/internal/sim"
)

// DumpOptions configures the stimulus dump writers.
type DumpOptions struct {
	// Words is the number of 64-bit simulation words (Words*64 vectors);
	// <= 0 defaults to 64, matching power.Options.
	Words int
	// Seed seeds the random stimulus generator.
	Seed int64
	// InputProbs biases the per-input signal probability (nil = 0.5).
	InputProbs []float64
}

// dumpSim runs the random stimulus the power estimator would use and
// returns the simulator plus vector count. Dumps are always random
// stimulus — the exhaustive estimate enumerates input combinations in
// counting order, which is not a time sequence, so replaying it as one
// would misreport transition densities.
func dumpSim(nl *netlist.Netlist, opts DumpOptions) (*sim.Simulator, int) {
	words := opts.Words
	if words <= 0 {
		words = 64
	}
	s := sim.New(nl, words)
	s.SetInputsRandom(opts.Seed, opts.InputProbs)
	s.Run()
	return s, s.NumVectors()
}

// bitAt extracts sample vector t of a value-word slice.
func bitAt(words []uint64, t int) byte {
	return byte((words[t/64] >> (uint(t) % 64)) & 1)
}

// module returns the VCD $scope / SAIF top INSTANCE name of a dump: the
// netlist name, or "powder" if that is empty.
func module(nl *netlist.Netlist) string {
	if nl.Name != "" {
		return nl.Name
	}
	return "powder"
}

// dumpNodes returns the nodes a dump records — the primary inputs (at a
// register cut these include the latch outputs) — with VCD-safe id
// codes.
func dumpNodes(nl *netlist.Netlist) []netlist.NodeID {
	return nl.Inputs()
}

// vcdID returns the printable-ASCII identifier code for input index i
// (the usual base-94 encoding over '!'..'~').
func vcdID(i int) string {
	var b []byte
	for {
		b = append(b, byte('!'+i%94))
		i /= 94
		if i == 0 {
			break
		}
	}
	return string(b)
}

// DumpVCD writes the random-simulation stimulus of the netlist's
// primary inputs as a VCD: one `#t` timestamp per sample vector
// (emitted even when no signal changes, so ingestion recovers the exact
// vector count), scalar value changes only where the value differs from
// the previous vector, and a full $dumpvars image at t=0. Ingesting the
// result with ReadVCD reproduces the simulator's input statistics
// exactly. Returns the number of vectors written.
func DumpVCD(w io.Writer, nl *netlist.Netlist, opts DumpOptions) (int, error) {
	s, nvec := dumpSim(nl, opts)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "$date\n  powder stimulus dump\n$end\n")
	fmt.Fprintf(bw, "$version\n  powder\n$end\n")
	fmt.Fprintf(bw, "$timescale 1ns $end\n")
	fmt.Fprintf(bw, "$scope module %s $end\n", sanitizeName(module(nl)))
	ins := dumpNodes(nl)
	for i, id := range ins {
		fmt.Fprintf(bw, "$var wire 1 %s %s $end\n", vcdID(i), sanitizeName(nl.Node(id).Name()))
	}
	fmt.Fprintf(bw, "$upscope $end\n$enddefinitions $end\n")

	prev := make([]byte, len(ins))
	fmt.Fprintf(bw, "#0\n$dumpvars\n")
	for i, id := range ins {
		v := bitAt(s.Value(id), 0)
		prev[i] = v
		fmt.Fprintf(bw, "%d%s\n", v, vcdID(i))
	}
	fmt.Fprintf(bw, "$end\n")
	for t := 1; t < nvec; t++ {
		fmt.Fprintf(bw, "#%d\n", t)
		for i, id := range ins {
			v := bitAt(s.Value(id), t)
			if v != prev[i] {
				prev[i] = v
				fmt.Fprintf(bw, "%d%s\n", v, vcdID(i))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return nvec, nil
}

// DumpSAIF writes the same stimulus as a SAIF summary: DURATION is the
// pair count (vectors - 1), T0/T1 accumulate each input's value over
// the first DURATION vectors (each vector holds its value for one time
// unit until the next), and TC counts consecutive-vector differences —
// exactly the statistics ReadVCD extracts from the corresponding
// DumpVCD output, so the two formats ingest to identical profiles.
// Returns the number of vectors summarized.
func DumpSAIF(w io.Writer, nl *netlist.Netlist, opts DumpOptions) (int, error) {
	s, nvec := dumpSim(nl, opts)
	duration := nvec - 1
	if duration < 1 {
		duration = 1
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(SAIFILE\n")
	fmt.Fprintf(bw, "  (SAIFVERSION \"2.0\")\n")
	fmt.Fprintf(bw, "  (DIRECTION \"backward\")\n")
	fmt.Fprintf(bw, "  (TIMESCALE 1 ns)\n")
	fmt.Fprintf(bw, "  (DURATION %d)\n", duration)
	fmt.Fprintf(bw, "  (INSTANCE %s\n    (NET\n", sanitizeName(module(nl)))
	for _, id := range dumpNodes(nl) {
		words := s.Value(id)
		var t1, tc int64
		prev := bitAt(words, 0)
		// The last vector opens no interval (it has no successor), so
		// value time covers vectors 0..duration-1.
		if prev == 1 {
			t1++
		}
		for t := 1; t < nvec; t++ {
			v := bitAt(words, t)
			if v != prev {
				tc++
			}
			if v == 1 && t < duration {
				t1++
			}
			prev = v
		}
		fmt.Fprintf(bw, "      (%s\n        (T0 %d) (T1 %d) (TX 0)\n        (TC %d) (IG 0)\n      )\n",
			sanitizeName(nl.Node(id).Name()), int64(duration)-t1, t1, tc)
	}
	fmt.Fprintf(bw, "    )\n  )\n)\n")
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return nvec, nil
}

// sanitizeName makes a netlist name safe as a VCD reference / SAIF atom:
// whitespace and parens (which would break tokenization) map to '_'.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r', '(', ')', '"':
			return '_'
		default:
			return r
		}
	}, name)
}
