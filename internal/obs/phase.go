package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// PhaseSet accumulates wall time per named pipeline phase; the span
// tracer's self-time table (trace.StartTable) is one. A nil PhaseSet is
// a no-op, so instrumented code never branches on enablement.
type PhaseSet struct {
	mu    sync.Mutex
	order []string
	total map[string]time.Duration
	count map[string]int64
}

// NewPhaseSet returns an empty phase accumulator.
func NewPhaseSet() *PhaseSet {
	return &PhaseSet{
		total: make(map[string]time.Duration),
		count: make(map[string]int64),
	}
}

// Add accumulates d into the named phase.
func (p *PhaseSet) Add(name string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.total[name]; !ok {
		p.order = append(p.order, name)
	}
	p.total[name] += d
	p.count[name]++
}

// Snapshot returns the accumulated phases in first-seen order.
func (p *PhaseSet) Snapshot() Phases {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(Phases, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, PhaseStat{
			Name:    name,
			Count:   p.count[name],
			Seconds: p.total[name].Seconds(),
		})
	}
	return out
}

// PhaseStat is the accumulated wall time of one pipeline phase.
type PhaseStat struct {
	// Name is the phase label ("harvest", "atpg-check", ...).
	Name string `json:"name"`
	// Count is how many timed segments (spans) the phase accumulated.
	Count int64 `json:"count"`
	// Seconds is the total wall time of the phase.
	Seconds float64 `json:"seconds"`
}

// Phases is an ordered phase breakdown (a PhaseSet snapshot).
type Phases []PhaseStat

// Seconds returns the summed wall time over all phases.
func (ps Phases) Seconds() float64 {
	total := 0.0
	for _, p := range ps {
		total += p.Seconds
	}
	return total
}

// Map returns the breakdown as phase name -> seconds (for JSON reports).
func (ps Phases) Map() map[string]float64 {
	m := make(map[string]float64, len(ps))
	for _, p := range ps {
		m[p.Name] = p.Seconds
	}
	return m
}

// Get returns the stat of the named phase and whether it exists.
func (ps Phases) Get(name string) (PhaseStat, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStat{}, false
}

// String renders the breakdown sorted by descending share of total time.
func (ps Phases) String() string {
	if len(ps) == 0 {
		return "(no phases)"
	}
	sorted := append(Phases(nil), ps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seconds > sorted[j].Seconds })
	total := ps.Seconds()
	var b strings.Builder
	for i, p := range sorted {
		if i > 0 {
			b.WriteString(", ")
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * p.Seconds / total
		}
		fmt.Fprintf(&b, "%s %.3fs (%.0f%%)", p.Name, p.Seconds, pct)
	}
	return b.String()
}
