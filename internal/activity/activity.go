// Package activity ingests workload switching-activity dumps — VCD
// value-change traces and SAIF toggle summaries — into a common Profile:
// per-signal static probability p(i) and transition density D(i) over the
// observation window. A Profile binds onto a netlist's primary-input (and,
// at the register cut, latch-output) names to produce the vectors the
// power model consumes: per-input signal probabilities (power
// sampling bias, seq fixpoint seed) and per-input transition densities
// (pinned E(i) at the PIs), replacing the paper's uniform
// temporal-independence assumption with the workload the user actually
// runs.
//
// Unknown-value policy (both formats): time spent in x or z is excluded
// from the probability denominator (p = high / (high + low)), and a
// transition only counts as a toggle between two known binary values —
// 0 → x → 1 is one toggle, 0 → x → 0 is none. Signals observed only in
// x/z report p = 0.5 and density 0.
//
// Density normalization: D(i) = toggles(i) / cycles. A VCD derives
// cycles from its distinct timestamps (timestamps are assumed to mark
// evaluation instants, e.g. clock cycles); a SAIF uses its DURATION in
// timescale units (one unit = one cycle by default). Dumps whose time
// axis is finer than the clock should be renormalized with
// SetClockPeriod. Densities above 1 (clocks, glitchy nets) are clamped
// at bind time and counted.
package activity

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Signal is one observed net: toggle count plus time spent per value
// class, all in the profile's time units.
type Signal struct {
	// Name is the flattened hierarchical name (scopes joined with '.').
	Name string
	// Toggles counts transitions between known binary values.
	Toggles int64
	// HighTime/LowTime/UnknownTime partition the observation window by
	// the signal's value (UnknownTime covers x and z).
	HighTime    int64
	LowTime     int64
	UnknownTime int64
}

// P returns the static signal probability: time at 1 over time at a
// known value. Signals never observed at a known value report 0.5.
func (s *Signal) P() float64 {
	known := s.HighTime + s.LowTime
	if known <= 0 {
		return 0.5
	}
	return float64(s.HighTime) / float64(known)
}

// Profile is a parsed activity dump: the observation window plus every
// scalar signal's accumulated statistics.
type Profile struct {
	// Source is the dump format: "vcd" or "saif".
	Source string
	// Timescale echoes the dump's declared time unit (informational).
	Timescale string
	// Duration is the observation window in time units.
	Duration int64
	// Cycles is the density normalization: D(i) = Toggles(i) / Cycles.
	// See the package comment for how each format derives it.
	Cycles int64
	// Signals holds every tracked scalar signal in declaration order.
	Signals []*Signal
	// Ignored counts declared signals the parser skipped (multi-bit
	// vectors, reals); they are reported, never silently dropped.
	Ignored int

	index map[string]int // full flattened name -> Signals index
}

// Signal returns the signal with the exact flattened name, or nil.
func (p *Profile) Signal(name string) *Signal {
	if i, ok := p.index[name]; ok {
		return p.Signals[i]
	}
	return nil
}

// Density returns a signal's transition density D = toggles / cycles,
// unclamped (clock-like signals can exceed 1; Bind clamps and counts).
func (p *Profile) Density(s *Signal) float64 {
	if p.Cycles <= 0 {
		return 0
	}
	return float64(s.Toggles) / float64(p.Cycles)
}

// SetClockPeriod renormalizes the density denominator to
// Duration / period cycles — for dumps whose time axis is finer than the
// clock (e.g. a 1 ps VCD of a 1 ns clock needs period 1000).
func (p *Profile) SetClockPeriod(period int64) error {
	if period <= 0 {
		return fmt.Errorf("activity: clock period must be positive, got %d", period)
	}
	cycles := p.Duration / period
	if cycles <= 0 {
		cycles = 1
	}
	p.Cycles = cycles
	return nil
}

// Digest returns a content address of the profile: two dumps with the
// same signals, statistics, and window digest identically regardless of
// format details (declaration order, comments, formatting). The service
// folds it into the result-cache key so the same netlist under different
// workloads never aliases.
func (p *Profile) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "powder-activity/v1\n%d %d\n", p.Duration, p.Cycles)
	names := make([]string, len(p.Signals))
	for i, s := range p.Signals {
		names[i] = s.Name
	}
	sort.Strings(names)
	for _, n := range names {
		s := p.Signal(n)
		fmt.Fprintf(h, "%s %d %d %d %d\n", s.Name, s.Toggles, s.HighTime, s.LowTime, s.UnknownTime)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildIndex finalizes a parsed profile; duplicate flattened names are a
// dump error (two scopes collapsing onto one name would silently merge
// distinct nets).
func (p *Profile) buildIndex() error {
	p.index = make(map[string]int, len(p.Signals))
	for i, s := range p.Signals {
		if prev, dup := p.index[s.Name]; dup {
			_ = prev
			return fmt.Errorf("activity: duplicate signal %q in %s dump", s.Name, p.Source)
		}
		p.index[s.Name] = i
	}
	return nil
}

// Binding maps a profile onto an ordered list of netlist input names.
type Binding struct {
	// Names echoes the bound input names, in netlist input order.
	Names []string
	// Probs holds the per-input signal probability: the matched signal's
	// P(), 0.5 for unmatched inputs.
	Probs []float64
	// Toggles holds the per-input transition density, clamped to [0,1];
	// NaN marks unmatched inputs (callers fall back to 2p(1-p)).
	Toggles []float64
	// Matched flags which inputs found a profile signal.
	Matched []bool
	// MatchedCount is the number of true entries in Matched.
	MatchedCount int
	// Unmatched lists the input names without a profile signal.
	Unmatched []string
	// Clamped counts matched inputs whose density exceeded 1 toggle per
	// cycle and was clamped (clocks routed to a data pin, glitchy nets).
	Clamped int
}

// Coverage renders the matched-signal report line.
func (b *Binding) Coverage() string {
	n := len(b.Names)
	pct := 0.0
	if n > 0 {
		pct = 100 * float64(b.MatchedCount) / float64(n)
	}
	s := fmt.Sprintf("matched %d/%d inputs (%.0f%%)", b.MatchedCount, n, pct)
	if len(b.Unmatched) > 0 {
		s += fmt.Sprintf(", unmatched: %s", strings.Join(b.Unmatched, " "))
	}
	if b.Clamped > 0 {
		s += fmt.Sprintf(", %d densities clamped to 1", b.Clamped)
	}
	return s
}

// Label names the workload of a binding of p in a run ledger:
// "<source> sha256:<first 12 hex digits of p.Digest()> <coverage>".
// source names the dump, by its file name or its format.
func (b *Binding) Label(source string, p *Profile) string {
	return fmt.Sprintf("%s sha256:%.12s %s", source, p.Digest(), b.Coverage())
}

// unescape strips one leading backslash — the escape prefix BLIF, VCD,
// and SAIF all use for identifiers with unusual characters.
func unescape(name string) string {
	return strings.TrimPrefix(name, "\\")
}

// basename returns the last hierarchical component of a flattened name
// ('.' and '/' both separate scopes).
func basename(name string) string {
	if i := strings.LastIndexAny(name, "./"); i >= 0 {
		return name[i+1:]
	}
	return name
}

// matchTier is one name-resolution tier: a key derivation applied to
// both profile signals and netlist inputs.
type matchTier struct {
	desc string
	key  func(string) string
}

// The tiers, most to least specific: exact flattened name, escape-
// stripped name, hierarchical basename, case-folded basename. A lookup
// walks them in order and stops at the first tier with a hit; two
// distinct signals colliding on the winning key is an explicit
// ambiguity error, never a silent pick.
var matchTiers = []matchTier{
	{"exact", func(n string) string { return n }},
	{"escape-stripped", func(n string) string { return unescape(n) }},
	{"basename", func(n string) string { return basename(unescape(n)) }},
	{"case-folded basename", func(n string) string { return strings.ToLower(basename(unescape(n))) }},
}

// Bind resolves the profile's signals onto an ordered list of netlist
// input names (primary inputs, and at a register cut the latch outputs
// that follow them). Matching is case- and escape-aware and flattens
// hierarchy: an input matches by exact flattened name first, then by its
// escape-stripped form, then by unique hierarchical basename, then by
// unique case-folded basename. An ambiguous basename (two profile scopes
// flattening onto one leaf name) is an error; an input with no match is
// reported in Binding.Unmatched and defaults to the uniform assumption.
func (p *Profile) Bind(inputs []string) (*Binding, error) {
	// One key table per tier, with collision lists kept so ambiguity can
	// name the offenders.
	tables := make([]map[string][]int, len(matchTiers))
	for t, tier := range matchTiers {
		tables[t] = make(map[string][]int, len(p.Signals))
		for i, s := range p.Signals {
			k := tier.key(s.Name)
			tables[t][k] = append(tables[t][k], i)
		}
	}
	b := &Binding{
		Names:   append([]string(nil), inputs...),
		Probs:   make([]float64, len(inputs)),
		Toggles: make([]float64, len(inputs)),
		Matched: make([]bool, len(inputs)),
	}
	for i, name := range inputs {
		b.Probs[i] = 0.5
		b.Toggles[i] = math.NaN()
		sig, err := p.lookup(tables, name)
		if err != nil {
			return nil, err
		}
		if sig == nil {
			b.Unmatched = append(b.Unmatched, name)
			continue
		}
		b.Matched[i] = true
		b.MatchedCount++
		b.Probs[i] = sig.P()
		d := p.Density(sig)
		if d > 1 {
			d = 1
			b.Clamped++
		}
		b.Toggles[i] = d
	}
	return b, nil
}

// lookup resolves one input name through the tier tables.
func (p *Profile) lookup(tables []map[string][]int, name string) (*Signal, error) {
	for t, tier := range matchTiers {
		hits := tables[t][tier.key(name)]
		if len(hits) == 0 {
			continue
		}
		// Distinct signals sharing the key at the first tier that matches
		// make the input ambiguous.
		if len(hits) > 1 {
			names := make([]string, len(hits))
			for j, idx := range hits {
				names[j] = p.Signals[idx].Name
			}
			return nil, fmt.Errorf("activity: input %q is ambiguous under %s matching: profile signals %s collide",
				name, tier.desc, strings.Join(names, ", "))
		}
		return p.Signals[hits[0]], nil
	}
	return nil, nil
}

// Read parses an activity dump, sniffing the format by content: a dump
// whose first non-space byte opens an s-expression is SAIF, anything
// else is parsed as VCD. The reader is consumed.
func Read(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	if sniffSAIF(br) {
		return ReadSAIF(br)
	}
	return ReadVCD(br)
}

// sniffSAIF peeks past leading whitespace for the '(' that every
// SAIFILE opens with. VCD files start with a '$' directive, a comment,
// or a '#' timestamp — never '('.
func sniffSAIF(br *bufio.Reader) bool {
	for skip := 0; ; skip++ {
		buf, err := br.Peek(skip + 1)
		if err != nil || len(buf) <= skip {
			return false
		}
		switch c := buf[skip]; c {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return c == '('
		}
	}
}
