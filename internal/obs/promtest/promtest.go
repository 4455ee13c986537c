// Package promtest parses and validates the Prometheus text exposition
// format (0.0.4) for tests, so they can check the /metrics output
// without external dependencies. It covers the subset the obs encoder
// emits: # HELP/# TYPE comments, samples with an optional one-level
// label set, and no timestamps. It imports nothing from obs, so obs's
// own tests can use it.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	// Name is the sample's metric name (including any _bucket/_sum/_count
	// suffix for histogram series).
	Name string
	// Labels holds the label pairs, unescaped.
	Labels map[string]string
	// Value is the parsed sample value.
	Value float64
}

// Metrics is the parse result: declared family types plus every
// sample in input order.
type Metrics struct {
	// Types maps family name -> declared type ("counter", "gauge",
	// "histogram", ...).
	Types map[string]string
	// Samples lists every sample line.
	Samples []Sample
}

// Family returns the samples whose name is the family name or a
// _bucket/_sum/_count series of it.
func (m *Metrics) Family(name string) []Sample {
	var out []Sample
	for _, s := range m.Samples {
		if s.Name == name || s.Name == name+"_bucket" || s.Name == name+"_sum" || s.Name == name+"_count" {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the value of the first sample with the given name (and
// no label requirement); ok reports whether one exists.
func (m *Metrics) Value(name string) (v float64, ok bool) {
	for _, s := range m.Samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// Parse parses text exposition input, validating the line
// grammar: comments, blank lines, and `name[{labels}] value` samples.
func Parse(r io.Reader) (*Metrics, error) {
	m := &Metrics{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, m); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// parseComment handles # HELP / # TYPE lines (other comments are
// ignored, per the format).
func parseComment(line string, m *Metrics) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validMetricName(name) {
			return fmt.Errorf("bad metric name %q in TYPE comment", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if prev, dup := m.Types[name]; dup && prev != typ {
			return fmt.Errorf("conflicting TYPE for %s: %s vs %s", name, prev, typ)
		}
		m.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var valueText string
	if brace >= 0 {
		s.Name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[brace+1 : end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		valueText = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`, got %q", line)
		}
		s.Name, valueText = fields[0], fields[1]
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	v, err := parseValue(valueText)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valueText, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(text string) (float64, error) {
	switch text {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(text, 64)
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	body = strings.TrimSuffix(strings.TrimSpace(body), ",")
	if body == "" {
		return labels, nil
	}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair without '='")
		}
		name := strings.TrimSpace(body[:eq])
		if !validLabelName(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("label value of %q is not quoted", name)
		}
		value, remaining, err := unquoteLabelValue(rest)
		if err != nil {
			return nil, err
		}
		labels[name] = value
		body = strings.TrimPrefix(strings.TrimSpace(remaining), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

// unquoteLabelValue consumes a leading quoted string with \", \\ and \n
// escapes, returning the value and the unconsumed remainder.
func unquoteLabelValue(s string) (value, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in label value")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Validate parses the input and additionally checks histogram
// invariants for every family declared `histogram`: buckets present and
// sorted by ascending le, cumulative counts non-decreasing, a +Inf
// bucket whose count equals the _count sample. It returns the parsed
// metrics on success.
func Validate(r io.Reader) (*Metrics, error) {
	m, err := Parse(r)
	if err != nil {
		return nil, err
	}
	for name, typ := range m.Types {
		if typ != "histogram" {
			continue
		}
		if err := validateHistogram(m, name); err != nil {
			return nil, fmt.Errorf("histogram %s: %v", name, err)
		}
	}
	return m, nil
}

func validateHistogram(m *Metrics, name string) error {
	// A family may carry several labeled series (one per label set, e.g.
	// http_request_seconds{path,code}); the histogram invariants hold per
	// series, so buckets/_sum/_count are grouped by their non-le label
	// signature before checking.
	type bucket struct {
		le    float64
		count float64
	}
	type series struct {
		buckets            []bucket
		count              float64
		haveCount, haveSum bool
	}
	groups := make(map[string]*series)
	get := func(s Sample) *series {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var sig strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sig, "%s=%q,", k, s.Labels[k])
		}
		g := groups[sig.String()]
		if g == nil {
			g = &series{}
			groups[sig.String()] = g
		}
		return g
	}
	for _, s := range m.Samples {
		switch s.Name {
		case name + "_bucket":
			leText, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			le, err := parseValue(leText)
			if err != nil {
				return fmt.Errorf("bad le %q: %v", leText, err)
			}
			g := get(s)
			g.buckets = append(g.buckets, bucket{le: le, count: s.Value})
		case name + "_count":
			g := get(s)
			g.count, g.haveCount = s.Value, true
		case name + "_sum":
			get(s).haveSum = true
		}
	}
	if len(groups) == 0 {
		return fmt.Errorf("no buckets")
	}
	check := func(g *series) error {
		if len(g.buckets) == 0 {
			return fmt.Errorf("no buckets")
		}
		if !g.haveCount || !g.haveSum {
			return fmt.Errorf("missing _count or _sum")
		}
		if !sort.SliceIsSorted(g.buckets, func(i, j int) bool { return g.buckets[i].le < g.buckets[j].le }) {
			return fmt.Errorf("bucket le values not ascending")
		}
		for i := 1; i < len(g.buckets); i++ {
			if g.buckets[i].count < g.buckets[i-1].count {
				return fmt.Errorf("cumulative counts decrease at le=%v", g.buckets[i].le)
			}
		}
		last := g.buckets[len(g.buckets)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("missing +Inf bucket")
		}
		if last.count != g.count {
			return fmt.Errorf("+Inf bucket %v != count %v", last.count, g.count)
		}
		return nil
	}
	for sig, g := range groups {
		if err := check(g); err != nil {
			if sig != "" {
				return fmt.Errorf("series {%s}: %v", strings.TrimSuffix(sig, ","), err)
			}
			return err
		}
	}
	return nil
}
