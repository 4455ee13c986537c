package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two-sample quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 10, 10}); got != 0 {
		t.Fatalf("spread of constant samples = %v", got)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{3300, 99, 33},
		{290, 95, 15},
		{100, 90, 10},
		{20, 50, 10},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, beyond, ok := tail(xs)
		if !ok || p != c.p || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%v (%v, %d beyond, ok %v); want p%v with %d beyond", c.n, p, v, beyond, ok, c.p, c.beyond)
		}
	}
	if _, _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("19 samples cannot carry a percentile with 10 samples beyond it")
	}
}

// endToEndDef returns the definition of a named end-to-end metric.
func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func TestRegressedHonoursBoundAndFloor(t *testing.T) {
	setup, _ := endToEndDef("setup_s")
	reduction, _ := endToEndDef("reduction_pct")
	wall, _ := endToEndDef("wall_s")
	cases := []struct {
		name      string
		d         metricDef
		base, cur float64
		want      bool
	}{
		{"tiny setup change under the 10ms floor", setup, 0.002, 0.008, false},
		{"setup 30% worse above the floor", setup, 0.100, 0.130, true},
		{"setup 20% worse within the bound", setup, 0.100, 0.120, false},
		{"wall 30% worse", wall, 10, 13, true},
		{"wall 20% worse, within the bound", wall, 10, 12, false},
		{"wall faster", wall, 10, 5, false},
		{"reduction drops 0.7%", reduction, 28.5, 28.3, true},
		{"reduction drops 0.2%", reduction, 28.5, 28.45, false},
		{"reduction rises", reduction, 28.5, 30, false},
	}
	for _, c := range cases {
		if got := regressed(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: regressed(%v -> %v) = %v, want %v", c.name, c.base, c.cur, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	wall, _ := endToEndDef("wall_s")
	j := func(base, cur []float64, paired bool) verdict {
		return judge(wall, base, cur, spread(base), spread(cur), paired)
	}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	if v := j(base, []float64{10.02, 9.98, 10.1, 10.0, 9.9}, true); v.outcome != "within bound" {
		t.Errorf("same distribution judged %q", v.outcome)
	}
	if v := j(base, []float64{13, 13.1, 12.9, 13.05, 12.95}, true); v.outcome != "REGRESSION" {
		t.Errorf("30%% slower judged %q", v.outcome)
	}
	if v := j(base, []float64{9, 9.1, 8.9, 9.05, 8.95}, true); v.outcome != "within bound" {
		t.Errorf("10%% faster on five pairs judged %q; a gain needs %d pairs", v.outcome, minPairs)
	}
	base10 := append(append([]float64(nil), base...), base...)
	faster10 := []float64{9, 9.1, 8.9, 9.05, 8.95, 9, 9.1, 8.9, 9.05, 8.95}
	if v := j(base10, faster10, true); v.outcome != "gain" || v.wins != 10 {
		t.Errorf("10%% faster on ten pairs judged %q with %d wins", v.outcome, v.wins)
	}
	if v := j(base10, faster10, false); v.outcome != "within bound" || v.pairs != 0 {
		t.Errorf("10%% faster on ten unpaired runs judged %q over %d pairs", v.outcome, v.pairs)
	}
	// A tie counts for neither side: eight wins and two ties of ten pairs
	// fall short of nine tenths.
	tied := append([]float64{10.0, 10.1}, faster10[2:]...)
	if v := j(base10, tied, true); v.outcome != "within bound" || v.wins != 8 {
		t.Errorf("eight wins and two ties judged %q with %d wins", v.outcome, v.wins)
	}
	noisy := []float64{8, 12, 9, 11, 10}
	if v := j(noisy, []float64{13, 9, 12, 8, 11}, true); v.outcome != "unresolved" {
		t.Errorf("spread wider than the bound judged %q", v.outcome)
	}
	if v := j(noisy, []float64{5, 5.5, 6, 5.2, 5.8}, true); v.outcome != "better" {
		t.Errorf("every new run beating every base run judged %q", v.outcome)
	}
	if math.IsNaN(j([]float64{1}, []float64{1}, true).baseQ1) {
		t.Error("single-run quartiles are NaN")
	}
}
