package obs

import (
	"math"
	"strings"
	"testing"

	"powder/internal/obs/promtest"
)

func TestParsePrometheusSamples(t *testing.T) {
	in := `# HELP x_total helpful words
# TYPE x_total counter
x_total 42
# TYPE lat histogram
lat_bucket{le="0.5"} 1
lat_bucket{le="+Inf"} 2
lat_sum 1.25
lat_count 2
g{a="b",c="d\"e\\f\ng"} -3.5
`
	m, err := promtest.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Types["x_total"] != "counter" || m.Types["lat"] != "histogram" {
		t.Errorf("Types = %v", m.Types)
	}
	if v, ok := m.Value("x_total"); !ok || v != 42 {
		t.Errorf("x_total = %v ok=%v", v, ok)
	}
	var g *promtest.Sample
	for i := range m.Samples {
		if m.Samples[i].Name == "g" {
			g = &m.Samples[i]
		}
	}
	if g == nil {
		t.Fatal("sample g not parsed")
	}
	if g.Value != -3.5 || g.Labels["a"] != "b" || g.Labels["c"] != "d\"e\\f\ng" {
		t.Errorf("g = %+v", g)
	}
	// +Inf label value must parse to infinity via the le accessor path.
	var inf *promtest.Sample
	for i := range m.Samples {
		if m.Samples[i].Name == "lat_bucket" && m.Samples[i].Labels["le"] == "+Inf" {
			inf = &m.Samples[i]
		}
	}
	if inf == nil || inf.Value != 2 {
		t.Errorf("+Inf bucket = %+v", inf)
	}
	if fam := m.Family("lat"); len(fam) != 4 {
		t.Errorf("Family(lat) = %d samples, want 4", len(fam))
	}
}

func TestParsePrometheusSpecialValues(t *testing.T) {
	in := "a +Inf\nb -Inf\nc NaN\n"
	m, err := promtest.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Value("a"); !math.IsInf(v, 1) {
		t.Errorf("a = %v", v)
	}
	if v, _ := m.Value("b"); !math.IsInf(v, -1) {
		t.Errorf("b = %v", v)
	}
	if v, _ := m.Value("c"); !math.IsNaN(v) {
		t.Errorf("c = %v", v)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := []string{
		"1badname 1\n",
		"x\n",
		"x one\n",
		`x{le="0.5" 1` + "\n",
		`x{le=0.5} 1` + "\n",
		`x{le="unterminated} 1`,
		"# TYPE x wrongtype\nx 1\n",
		"# TYPE x counter\n# TYPE x gauge\n",
		`x{9bad="v"} 1` + "\n",
		`x{a="\q"} 1` + "\n",
	}
	for _, in := range bad {
		if _, err := promtest.Parse(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestValidatePrometheusHistogramInvariants(t *testing.T) {
	valid := `# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 4
h_sum 5.5
h_count 4
`
	if _, err := promtest.Validate(strings.NewReader(valid)); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}

	bad := map[string]string{
		"no buckets": `# TYPE h histogram
h_sum 0
h_count 0
`,
		"descending le": `# TYPE h histogram
h_bucket{le="2"} 1
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 1
h_sum 0
h_count 1
`,
		"non-monotone counts": `# TYPE h histogram
h_bucket{le="1"} 3
h_bucket{le="2"} 2
h_bucket{le="+Inf"} 3
h_sum 0
h_count 3
`,
		"missing +Inf": `# TYPE h histogram
h_bucket{le="1"} 1
h_sum 0
h_count 1
`,
		"+Inf != count": `# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 1
h_sum 0
h_count 2
`,
		"missing sum": `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_count 1
`,
		"bucket without le": `# TYPE h histogram
h_bucket{x="1"} 1
h_bucket{le="+Inf"} 1
h_sum 0
h_count 1
`,
	}
	for name, in := range bad {
		if _, err := promtest.Validate(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid histogram", name)
		}
	}
}
