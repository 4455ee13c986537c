package service

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"powder/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestObservabilityNames pins what one completed untraced job exposes:
// the key shape and entry kinds of /debug/flight (entries recorded since
// the test started) and the counter and histogram names of
// /metrics?format=json. Regenerate testdata/observability_names.txt with
// go test -run TestObservabilityNames -update.
func TestObservabilityNames(t *testing.T) {
	// Zero the recorder's baseline for a counter the job moves, so the
	// dump's counter sample is never empty whatever earlier tests counted.
	reg := obs.NewRegistry()
	reg.Counter("service.jobs.submitted")
	obs.Flight().SampleMetrics(reg)
	start := time.Now()
	_, ts := newTestService(t, Config{Workers: 1, Registry: reg}, nil)
	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateCompleted {
		t.Fatalf("job finished %s, want completed", fin.State)
	}

	var b strings.Builder
	var flight struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	top := getJSON(t, ts.URL+"/debug/flight", &flight)
	fmt.Fprintf(&b, "flight %s\n", strings.Join(sortedKeys(top), " "))
	entryKeys, kinds := map[string]bool{}, map[string]bool{}
	for _, e := range flight.Entries {
		var at time.Time
		var kind string
		if json.Unmarshal(e["time"], &at) != nil || json.Unmarshal(e["kind"], &kind) != nil {
			t.Fatalf("flight entry without time or kind: %v", e)
		}
		if at.Before(start) {
			continue // recorded by an earlier test of the process
		}
		kinds[kind] = true
		for k := range e {
			entryKeys[k] = true
		}
	}
	fmt.Fprintf(&b, "flight entry %s\n", strings.Join(sortedKeys(entryKeys), " "))
	for _, k := range sortedKeys(kinds) {
		fmt.Fprintf(&b, "flight kind %s\n", k)
	}

	var m metricsJSON
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	counters, histograms := map[string]bool{}, map[string]bool{}
	for name := range m.Metrics.Counters {
		counters[name] = true
	}
	for name := range m.Metrics.Histograms {
		histograms[name] = true
	}
	for _, n := range sortedKeys(counters) {
		fmt.Fprintf(&b, "counter %s\n", n)
	}
	for _, n := range sortedKeys(histograms) {
		fmt.Fprintf(&b, "histogram %s\n", n)
	}

	const golden = "testdata/observability_names.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("observability names differ from %s (rerun with -update to rewrite it):\n%s", golden, got)
	}
}

// getJSON GETs url, decodes the body into v, and returns the body's
// top-level keys.
func getJSON(t *testing.T, url string, v any) map[string]bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	// Read to EOF: the server records the request's metrics after the
	// handler returns, before it ends the response.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for k := range top {
		keys[k] = true
	}
	return keys
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
