package obs

import (
	"bytes"
	"strings"
	"testing"

	"powder/internal/obs/promtest"
)

func TestLabeledCanonicalKey(t *testing.T) {
	cases := []struct {
		name string
		kv   []string
		want string
	}{
		{"plain", nil, "plain"},
		{"m", []string{"path", "/v1/jobs", "code", "200"}, `m{code="200",path="/v1/jobs"}`},
		{"m", []string{"code", "200", "path", "/v1/jobs"}, `m{code="200",path="/v1/jobs"}`},
		{"m", []string{"k", `a"b\c`}, `m{k="a\"b\\c"}`},
		{"m", []string{"k", "a\nb"}, `m{k="a\nb"}`},
		{"m", []string{"k", "v", "dangling"}, `m{k="v"}`},
	}
	for _, c := range cases {
		if got := Labeled(c.name, c.kv...); got != c.want {
			t.Errorf("Labeled(%q, %v) = %q, want %q", c.name, c.kv, got, c.want)
		}
	}
}

func TestSplitLabels(t *testing.T) {
	base, labels := splitLabels(`http.request.seconds{code="200",path="/v1/jobs"}`)
	if base != "http.request.seconds" || labels != `code="200",path="/v1/jobs"` {
		t.Errorf("splitLabels = (%q, %q)", base, labels)
	}
	base, labels = splitLabels("plain")
	if base != "plain" || labels != "" {
		t.Errorf("splitLabels(plain) = (%q, %q)", base, labels)
	}
}

func TestLabeledCountersExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Labeled("par.conflicts", "kind", "touched")).Add(3)
	reg.Counter(Labeled("par.conflicts", "kind", "shared")).Add(2)
	reg.Counter("par.conflicts").Inc() // unlabeled sibling of the family

	var buf bytes.Buffer
	reg.WritePrometheus(&buf, "powder_")
	out := buf.String()

	if n := strings.Count(out, "# TYPE powder_par_conflicts_total counter"); n != 1 {
		t.Fatalf("family TYPE line appears %d times, want 1:\n%s", n, out)
	}
	for _, line := range []string{
		`powder_par_conflicts_total 1`,
		`powder_par_conflicts_total{kind="shared"} 2`,
		`powder_par_conflicts_total{kind="touched"} 3`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	if _, err := promtest.Validate(strings.NewReader(out)); err != nil {
		t.Errorf("labeled counter exposition does not validate: %v", err)
	}
}

func TestLabeledHistogramsExposition(t *testing.T) {
	reg := NewRegistry()
	for _, v := range []float64{0.01, 0.02, 0.5} {
		reg.Histogram(Labeled("http.request.seconds", "path", "/v1/jobs", "code", "202")).Observe(v)
	}
	reg.Histogram(Labeled("http.request.seconds", "path", "/healthz", "code", "200")).Observe(0.001)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf, "powder_")
	out := buf.String()

	if n := strings.Count(out, "# TYPE powder_http_request_seconds histogram"); n != 1 {
		t.Fatalf("family TYPE line appears %d times, want 1:\n%s", n, out)
	}
	// Bucket lines merge the series labels ahead of le; sum/count carry
	// the series labels alone.
	for _, frag := range []string{
		`powder_http_request_seconds_bucket{code="202",path="/v1/jobs",le="+Inf"} 3`,
		`powder_http_request_seconds_count{code="202",path="/v1/jobs"} 3`,
		`powder_http_request_seconds_count{code="200",path="/healthz"} 1`,
	} {
		if !strings.Contains(out, frag+"\n") {
			t.Errorf("exposition missing %q:\n%s", frag, out)
		}
	}
	// The in-repo validator must accept a multi-series histogram family
	// (buckets grouped per label signature, each cumulative).
	if _, err := promtest.Validate(strings.NewReader(out)); err != nil {
		t.Errorf("multi-series histogram exposition does not validate: %v", err)
	}
}
