package obs

import (
	"math"
	"strings"
	"testing"

	"powder/internal/obs/promtest"
)

// TestWritePrometheusGolden pins the exposition byte-for-byte against
// hand-written text. The expected bucket placement follows from the
// internal layout (geometric, growth 2^(1/4), from 1e-7): an observation
// lands in the internal bucket whose upper edge is the first at or above
// it, and an exposition bound counts every internal bucket whose upper
// edge is at or below the bound. 0.25 -> internal upper ~0.2966 (counted
// from le="0.5" on), 0.5 -> ~0.5932 (from le="1"), 3.0 -> ~3.355 (from
// le="5").
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.applied").Add(7)
	h := r.Histogram("atpg.check.seconds")
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(3.0)

	const golden = `# TYPE core_applied_total counter
core_applied_total 7
# TYPE atpg_check_seconds histogram
atpg_check_seconds_bucket{le="1e-06"} 0
atpg_check_seconds_bucket{le="1e-05"} 0
atpg_check_seconds_bucket{le="0.0001"} 0
atpg_check_seconds_bucket{le="0.001"} 0
atpg_check_seconds_bucket{le="0.01"} 0
atpg_check_seconds_bucket{le="0.1"} 0
atpg_check_seconds_bucket{le="0.5"} 1
atpg_check_seconds_bucket{le="1"} 2
atpg_check_seconds_bucket{le="2.5"} 2
atpg_check_seconds_bucket{le="5"} 3
atpg_check_seconds_bucket{le="10"} 3
atpg_check_seconds_bucket{le="30"} 3
atpg_check_seconds_bucket{le="60"} 3
atpg_check_seconds_bucket{le="300"} 3
atpg_check_seconds_bucket{le="1800"} 3
atpg_check_seconds_bucket{le="+Inf"} 3
atpg_check_seconds_sum 3.75
atpg_check_seconds_count 3
`
	var sb strings.Builder
	r.WritePrometheus(&sb, "")
	if sb.String() != golden {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
	}
}

func TestWritePrometheusPrefixAndTotalSuffix(t *testing.T) {
	r := NewRegistry()
	r.Counter("obs.dropped.events").Inc()
	r.Counter("already.a.total").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb, "powder_")
	out := sb.String()
	if !strings.Contains(out, "powder_obs_dropped_events_total 1") {
		t.Errorf("missing prefixed counter:\n%s", out)
	}
	// A name already ending in _total must not get a second suffix.
	if strings.Contains(out, "_total_total") {
		t.Errorf("doubled _total suffix:\n%s", out)
	}
}

func TestPromNameMangling(t *testing.T) {
	cases := map[string]string{
		"atpg.check.seconds":    "atpg_check_seconds",
		"core.rejects.low-gain": "core_rejects_low_gain",
		"a:b_c9":                "a:b_c9",
		"9lives":                "_lives",
	}
	for in, want := range cases {
		if got := promName("", in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promName("powder_", "x.y"); got != "powder_x_y" {
		t.Errorf("prefixed = %q", got)
	}
}

// TestCumulativeContract pins the re-bucketing against an exact count:
// each exposition bound's count never exceeds the exact number of
// observations at or below it, and never misses one at or below
// bound/growth (the documented <= one-internal-bucket undercount).
func TestCumulativeContract(t *testing.T) {
	h := NewHistogram()
	obs := []float64{1e-7, 3e-6, 8e-5, 0.002, 0.04, 0.3, 0.7, 1.5, 4, 20, 100, 1000, 5000}
	for _, v := range obs {
		h.Observe(v)
	}
	counts := h.Cumulative(ExpositionBounds)
	growth := math.Pow(2, 0.25)
	var prev int64
	for i, bound := range ExpositionBounds {
		if counts[i] < prev {
			t.Fatalf("cumulative counts decrease at %v", bound)
		}
		prev = counts[i]
		var exact, lower int64
		for _, v := range obs {
			if v <= bound {
				exact++
			}
			if v <= bound/growth {
				lower++
			}
		}
		if counts[i] > exact {
			t.Errorf("bound %v: count %d exceeds exact %d", bound, counts[i], exact)
		}
		if counts[i] < lower {
			t.Errorf("bound %v: count %d misses observations below %v", bound, counts[i], bound/growth)
		}
	}
	var nilH *Histogram
	for _, c := range nilH.Cumulative(ExpositionBounds) {
		if c != 0 {
			t.Fatal("nil histogram has nonzero cumulative counts")
		}
	}
}

// TestQuantileKnownDistributions pins the quantile estimator on
// distributions with known quantiles; the estimate must be an upper
// bound within the documented ~19% bucket error.
func TestQuantileKnownDistributions(t *testing.T) {
	growth := math.Pow(2, 0.25)

	// Uniform 1..1000 (seconds scale).
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, c := range []struct{ q, true float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000},
	} {
		got := h.Quantile(c.q)
		if got < c.true || got > c.true*growth {
			t.Errorf("uniform q%.2f = %v, want in [%v, %v]", c.q, got, c.true, c.true*growth)
		}
	}

	// Point mass: every quantile is the single bucket's upper edge.
	p := NewHistogram()
	for i := 0; i < 100; i++ {
		p.Observe(0.125)
	}
	lo, hi := p.Quantile(0.01), p.Quantile(0.99)
	if lo != hi {
		t.Errorf("point mass quantiles differ: %v vs %v", lo, hi)
	}
	if lo < 0.125 || lo > 0.125*growth {
		t.Errorf("point mass quantile %v outside [0.125, %v]", lo, 0.125*growth)
	}

	// Bimodal: p50 must sit at the low mode, p99 at the high mode.
	b := NewHistogram()
	for i := 0; i < 90; i++ {
		b.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		b.Observe(10)
	}
	if got := b.Quantile(0.50); got > 0.001*growth {
		t.Errorf("bimodal p50 = %v, want near 0.001", got)
	}
	if got := b.Quantile(0.99); got < 10 || got > 10*growth {
		t.Errorf("bimodal p99 = %v, want near 10", got)
	}

	if got := (*Histogram)(nil).Quantile(0.5); got != 0 {
		t.Errorf("nil quantile = %v", got)
	}
}

// TestRuntimeMetricsValidate round-trips the runtime collectors through
// the in-repo parser.
func TestRuntimeMetricsValidate(t *testing.T) {
	var sb strings.Builder
	WriteRuntimeMetrics(&sb)
	m, err := promtest.Validate(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("runtime metrics invalid: %v\n%s", err, sb.String())
	}
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total"} {
		if _, ok := m.Value(name); !ok {
			t.Errorf("missing %s", name)
		}
	}
	if v, _ := m.Value("go_goroutines"); v < 1 {
		t.Errorf("go_goroutines = %v", v)
	}
}

// TestExpositionParsesAndValidates round-trips a full registry through
// the parser's histogram invariants.
func TestExpositionParsesAndValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.applied").Add(3)
	for i := 0; i < 50; i++ {
		r.Histogram("atpg.check.seconds").Observe(float64(i) * 0.01)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb, "powder_")
	m, err := promtest.Validate(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, sb.String())
	}
	if m.Types["powder_atpg_check_seconds"] != "histogram" {
		t.Errorf("Types = %v", m.Types)
	}
	if v, ok := m.Value("powder_core_applied_total"); !ok || v != 3 {
		t.Errorf("counter = %v ok=%v", v, ok)
	}
}
