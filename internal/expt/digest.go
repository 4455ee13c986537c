package expt

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"powder/internal/blif"
	"powder/internal/circuits"
	"powder/internal/core"
)

// DigestKey names one Table-1 engine configuration: a circuit, free
// (unconstrained) or constrained to its initial delay, at one
// Options.Parallelism. Biased runs free under the seeded biased input
// probabilities of BiasedProbs instead of uniform activity.
type DigestKey struct {
	Circuit     string
	Constrained bool
	Biased      bool
	Par         int
}

// String renders the key as it appears in a digest file:
// "<circuit> <free|constr|biased> <par>".
func (k DigestKey) String() string {
	mode := "free"
	switch {
	case k.Biased:
		mode = "biased"
	case k.Constrained:
		mode = "constr"
	}
	return fmt.Sprintf("%s %s %d", k.Circuit, mode, k.Par)
}

// biasLevels are the signal probabilities BiasedProbs draws from.
var biasLevels = []float64{.05, .1, .2, .5, .8, .9, .95}

// BiasedProbs returns the input probabilities of a biased digest run:
// one level of {.05, .1, .2, .5, .8, .9, .95} per primary input, in
// input order, drawn from rand.NewSource(16). Biased inputs make the
// power model simulate random vectors whatever the input count, so
// these runs pin the random-vector path that uniform Table-1 runs with
// few inputs skip.
func BiasedProbs(inputs int) []float64 {
	rng := rand.New(rand.NewSource(16))
	probs := make([]float64, inputs)
	for i := range probs {
		probs[i] = biasLevels[rng.Intn(len(biasLevels))]
	}
	return probs
}

// OutputDigest optimizes spec under the Table-1 configuration named by k
// (power-aware initial mapping on lib2, inverted sources allowed,
// DelayFactor 1 when constrained, BiasedProbs when biased) and returns the hex sha256 of the
// optimized netlist's BLIF as blif.WriteModel writes it. Equal digests
// mean byte-identical optimizer output.
func OutputDigest(spec circuits.Spec, k DigestKey) (string, error) {
	opts := RunOptions{}
	opts.normalize()
	nl, err := compile(spec, &opts)
	if err != nil {
		return "", err
	}
	copts := opts.Core
	copts.Parallelism = k.Par
	if k.Constrained {
		copts.DelayFactor = 1
	}
	if k.Biased {
		copts.Power.InputProbs = BiasedProbs(len(nl.Inputs()))
	}
	if _, err := core.OptimizeCtx(context.Background(), nl, copts); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	model := &blif.Model{Netlist: nl, NumInputs: len(nl.Inputs()), NumOutputs: len(nl.Outputs())}
	if err := blif.WriteModel(&buf, model); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), nil
}

// ReadDigests parses a digest file: one "<circuit> <free|constr|biased>
// <par> <sha256>" line per configuration, '#' comments and blank lines
// ignored. The returned keys keep file order.
func ReadDigests(r io.Reader) ([]DigestKey, map[DigestKey]string, error) {
	var keys []DigestKey
	digests := map[DigestKey]string{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 4 || (f[1] != "free" && f[1] != "constr" && f[1] != "biased") {
			return nil, nil, fmt.Errorf("digests: line %d: want \"<circuit> <free|constr|biased> <par> <sha256>\"", line)
		}
		par, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, nil, fmt.Errorf("digests: line %d: %v", line, err)
		}
		k := DigestKey{Circuit: f[0], Constrained: f[1] == "constr", Biased: f[1] == "biased", Par: par}
		if _, dup := digests[k]; dup {
			return nil, nil, fmt.Errorf("digests: line %d: duplicate %v", line, k)
		}
		keys = append(keys, k)
		digests[k] = f[3]
	}
	return keys, digests, sc.Err()
}
