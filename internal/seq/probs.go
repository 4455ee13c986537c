package seq

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ProbEntry is one parsed line of a signal-probability file.
type ProbEntry struct {
	Name string
	P    float64
	Line int
}

// ParseProbs reads a per-primary-input signal-probability file: one
// "name=p" per line, '#' comments, blank lines ignored. Probabilities
// must lie in [0,1]; violations and malformed lines are rejected with the
// offending line number. Name resolution happens later (ResolveProbs), so
// the same file parses against any circuit.
func ParseProbs(r io.Reader) ([]ProbEntry, error) {
	sc := bufio.NewScanner(r)
	var entries []ProbEntry
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("probs line %d: want \"name=p\", got %q", lineNo, line)
		}
		name := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("probs line %d: bad probability %q for %q", lineNo, val, name)
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("probs line %d: probability %g for %q outside [0,1]", lineNo, p, name)
		}
		entries = append(entries, ProbEntry{Name: name, P: p, Line: lineNo})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("probs line %d: %v", lineNo+1, err)
	}
	return entries, nil
}

// ResolveProbs turns parsed entries into a probability vector over the
// circuit's true primary inputs (Core().Inputs()[:NumInputs] order).
// Inputs without an entry default to 0.5. Unknown and duplicate names are
// rejected with the offending line number — a misspelled input silently
// defaulting to 0.5 would corrupt the whole estimate.
func ResolveProbs(entries []ProbEntry, c *Circuit) ([]float64, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	m := c.Model
	index := make(map[string]int, m.NumInputs)
	for i, id := range m.Netlist.Inputs()[:m.NumInputs] {
		index[m.Netlist.Node(id).Name()] = i
	}
	probs := make([]float64, m.NumInputs)
	for i := range probs {
		probs[i] = 0.5
	}
	seenAt := make(map[string]int, len(entries))
	for _, e := range entries {
		if at, dup := seenAt[e.Name]; dup {
			return nil, fmt.Errorf("probs line %d: duplicate entry for %q (first on line %d)", e.Line, e.Name, at)
		}
		seenAt[e.Name] = e.Line
		i, ok := index[e.Name]
		if !ok {
			if isStateLine(c, e.Name) {
				return nil, fmt.Errorf("probs line %d: %q is a latch output; state-line probabilities come from the fixpoint, not the probs file", e.Line, e.Name)
			}
			return nil, fmt.Errorf("probs line %d: circuit %s has no primary input %q", e.Line, m.Netlist.Name, e.Name)
		}
		probs[i] = e.P
	}
	return probs, nil
}

func isStateLine(c *Circuit, name string) bool {
	m := c.Model
	for _, id := range m.Netlist.Inputs()[m.NumInputs:] {
		if m.Netlist.Node(id).Name() == name {
			return true
		}
	}
	return false
}
