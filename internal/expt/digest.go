package expt

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strconv"
	"strings"

	"powder/internal/blif"
	"powder/internal/circuits"
	"powder/internal/core"
)

// DigestKey names one Table-1 engine configuration: a circuit, free
// (unconstrained) or constrained to its initial delay, at one
// Options.Parallelism.
type DigestKey struct {
	Circuit     string
	Constrained bool
	Par         int
}

// String renders the key as it appears in a digest file:
// "<circuit> <free|constr> <par>".
func (k DigestKey) String() string {
	mode := "free"
	if k.Constrained {
		mode = "constr"
	}
	return fmt.Sprintf("%s %s %d", k.Circuit, mode, k.Par)
}

// OutputDigest optimizes spec under the Table-1 configuration named by k
// (power-aware initial mapping on lib2, inverted sources allowed,
// DelayFactor 1 when constrained) and returns the hex sha256 of the
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

// ReadDigests parses a digest file: one "<circuit> <free|constr> <par>
// <sha256>" line per configuration, '#' comments and blank lines
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
		if len(f) != 4 || (f[1] != "free" && f[1] != "constr") {
			return nil, nil, fmt.Errorf("digests: line %d: want \"<circuit> <free|constr> <par> <sha256>\"", line)
		}
		par, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, nil, fmt.Errorf("digests: line %d: %v", line, err)
		}
		k := DigestKey{Circuit: f[0], Constrained: f[1] == "constr", Par: par}
		if _, dup := digests[k]; dup {
			return nil, nil, fmt.Errorf("digests: line %d: duplicate %v", line, k)
		}
		keys = append(keys, k)
		digests[k] = f[3]
	}
	return keys, digests, sc.Err()
}
