//go:build ignore

// output_digests records or checks the sha256 of the optimizer's BLIF
// output for every Table-1 circuit, free and constrained to its initial
// delay, at -par 1 and -par 2. The committed digests pin the engine's
// output byte for byte, so a refactor that should not change results can
// prove it did not.
//
// -biased switches to the biased set instead: twelve circuits, free, at
// -par 1 and -par 2, under seeded biased input probabilities
// (expt.BiasedProbs). It pins the random-vector path that every
// -activity run takes and that uniform runs of small circuits skip.
//
// Usage:
//
//	go run scripts/output_digests.go -write internal/expt/testdata/table1_digests.txt
//	go run scripts/output_digests.go -check internal/expt/testdata/table1_digests.txt
//	go run scripts/output_digests.go -check FILE -circuits comp,clip
//	go run scripts/output_digests.go -biased -check internal/expt/testdata/biased_digests.txt
//
// -check exits 1 listing every configuration whose digest differs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"powder/internal/circuits"
	"powder/internal/expt"
)

func main() {
	write := flag.String("write", "", "compute every digest and write them to `file`")
	check := flag.String("check", "", "recompute the digests in `file` and compare")
	only := flag.String("circuits", "", "comma-separated circuit subset (default: all of the set)")
	biased := flag.Bool("biased", false, "use the biased-activity set instead of the Table-1 set")
	flag.Parse()
	if (*write == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/output_digests.go [-biased] -write FILE | -check FILE [-circuits a,b]")
		os.Exit(2)
	}
	keep := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n != "" {
			keep[n] = true
		}
	}
	inSet := func(string) bool { return true }
	if *biased {
		inSet = func(name string) bool { return biasedSet[name] }
	}
	var specs []circuits.Spec
	for _, s := range circuits.All() {
		if inSet(s.Name) && (len(keep) == 0 || keep[s.Name]) {
			specs = append(specs, s)
		}
	}
	keysOf := table1Keys
	if *biased {
		keysOf = biasedKeys
	}

	if *write != "" {
		var b strings.Builder
		if *biased {
			b.WriteString("# sha256 of blif.WriteModel output per biased-activity configuration;\n")
			b.WriteString("# regenerate with: go run scripts/output_digests.go -biased -write <this file>\n")
		} else {
			b.WriteString("# sha256 of blif.WriteModel output per Table-1 configuration;\n")
			b.WriteString("# regenerate with: go run scripts/output_digests.go -write <this file>\n")
		}
		for _, s := range specs {
			for _, k := range keysOf(s.Name) {
				d := digest(s, k)
				fmt.Fprintf(&b, "%v %s\n", k, d)
			}
		}
		if err := os.WriteFile(*write, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	f, err := os.Open(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_, want, err := expt.ReadDigests(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runs, bad := 0, 0
	for _, s := range specs {
		for _, k := range keysOf(s.Name) {
			w, ok := want[k]
			if !ok {
				fmt.Fprintf(os.Stderr, "%v: no committed digest\n", k)
				bad++
				continue
			}
			runs++
			if got := digest(s, k); got != w {
				fmt.Printf("MISMATCH %v: got %s want %s\n", k, got, w)
				bad++
			}
		}
	}
	fmt.Printf("%d runs checked, %d mismatched\n", runs, bad)
	if bad > 0 {
		os.Exit(1)
	}
}

// table1Keys lists the four configurations recorded per Table-1 circuit.
func table1Keys(name string) []expt.DigestKey {
	var keys []expt.DigestKey
	for _, par := range []int{1, 2} {
		for _, constrained := range []bool{false, true} {
			keys = append(keys, expt.DigestKey{Circuit: name, Constrained: constrained, Par: par})
		}
	}
	return keys
}

// biasedSet is the circuits of the biased set: the heavy benchmark
// circuits, the pose-biased ones, and small circuits whose uniform runs
// simulate exhaustive vectors.
var biasedSet = map[string]bool{
	"spla": true, "pdc": true, "apex5": true, "apex1": true, "x3": true, "ex4": true,
	"comp": true, "clip": true, "rd84": true, "t481": true, "misex3": true, "C432": true,
}

// biasedKeys lists the two configurations recorded per biased circuit.
func biasedKeys(name string) []expt.DigestKey {
	return []expt.DigestKey{
		{Circuit: name, Biased: true, Par: 1},
		{Circuit: name, Biased: true, Par: 2},
	}
}

// digest computes one configuration's digest, reporting its run time on
// stderr.
func digest(s circuits.Spec, k expt.DigestKey) string {
	start := time.Now()
	d, err := expt.OutputDigest(s, k)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v: %v\n", k, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%-24v %6.2fs\n", k, time.Since(start).Seconds())
	return d
}
