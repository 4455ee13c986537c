package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"powder/internal/obs/trace"
)

// fetchTrace GETs a job's trace endpoint and returns the raw response.
func fetchTrace(t *testing.T, base, id, query string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServiceTracedJobEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, TraceSample: 1}, nil)

	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != st.ID {
		t.Errorf("submit %s header = %q, want the job ID %q", TraceHeader, got, st.ID)
	}

	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateCompleted {
		t.Fatalf("job finished %s, want completed", fin.State)
	}
	if fin.TraceID != st.ID {
		t.Errorf("status trace_id = %q, want %q", fin.TraceID, st.ID)
	}

	tresp := fetchTrace(t, ts.URL, st.ID, "")
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", tresp.StatusCode)
	}
	if got := tresp.Header.Get(TraceHeader); got != st.ID {
		t.Errorf("trace %s header = %q, want %q", TraceHeader, got, st.ID)
	}
	var tr traceJSON
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if tr.Trace != st.ID {
		t.Errorf("trace payload ID = %q, want %q", tr.Trace, st.ID)
	}
	if err := trace.Validate(tr.Spans); err != nil {
		t.Fatalf("published span tree is malformed: %v", err)
	}
	roots := trace.Roots(tr.Spans)
	if len(roots) != 1 || roots[0].Name != "job" {
		t.Fatalf("roots = %+v, want exactly the job span", roots)
	}
	have := map[string]bool{}
	for _, s := range tr.Spans {
		have[s.Name] = true
	}
	for _, want := range []string{"job", "queue", "run", "optimize"} {
		if !have[want] {
			t.Errorf("span tree is missing a %q span (have %v)", want, have)
		}
	}

	// The job's event stream carries its lifecycle and its span ends.
	streamed := map[string]bool{}
	for _, rec := range jobEvents(t, ts.URL, st.ID) {
		name, _ := rec["event"].(string)
		if name == "span" {
			name, _ = rec["name"].(string)
		}
		streamed[name] = true
	}
	for _, want := range []string{"job-queued", "job-started", "job-finished", "optimize", "candidate"} {
		if !streamed[want] {
			t.Errorf("traced job's event stream has no %q (have %v)", want, streamed)
		}
	}

	// The same tree exports as Perfetto trace-event JSON.
	presp := fetchTrace(t, ts.URL, st.ID, "?format=perfetto")
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("perfetto trace: HTTP %d", presp.StatusCode)
	}
	if ct := presp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("perfetto Content-Type = %q, want application/json", ct)
	}
	var pf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&pf); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if len(pf.TraceEvents) < len(tr.Spans) {
		t.Errorf("perfetto export has %d events for %d spans", len(pf.TraceEvents), len(tr.Spans))
	}
}

func TestServiceTraceConflictWhileRunningAndDebugStatus(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1, TraceSample: 1}, func(ctx context.Context, j *Job) {
		<-release
	})
	st, _ := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	waitState(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")

	// The trace is incomplete while the job runs.
	resp := fetchTrace(t, ts.URL, st.ID, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of a running job: HTTP %d, want 409", resp.StatusCode)
	}

	// /debug/status shows the worker holding the job and its live span
	// stack (job → run are open while the hook blocks).
	dresp, err := http.Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	var ds debugStatus
	if err := json.NewDecoder(dresp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if len(ds.Workers) != 1 {
		t.Fatalf("debug workers = %+v, want one", ds.Workers)
	}
	if ds.Workers[0].Job != st.ID {
		t.Errorf("worker 0 runs %q, want %q", ds.Workers[0].Job, st.ID)
	}
	if len(ds.ActiveJobs) != 1 {
		t.Fatalf("active jobs = %+v, want one", ds.ActiveJobs)
	}
	aj := ds.ActiveJobs[0]
	if aj.ID != st.ID || aj.TraceID != st.ID || aj.State != StateRunning {
		t.Errorf("active job = %+v, want running %q with its trace ID", aj, st.ID)
	}
	stack := make([]string, 0, len(aj.SpanStack))
	for _, s := range aj.SpanStack {
		stack = append(stack, s.Name)
	}
	if len(stack) < 2 || stack[0] != "job" || stack[len(stack)-1] != "run" {
		t.Errorf("live span stack = %v, want job ... run", stack)
	}

	close(release)
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateCompleted {
		t.Fatalf("job finished %s, want completed", fin.State)
	}
	resp = fetchTrace(t, ts.URL, st.ID, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace after completion: HTTP %d, want 200", resp.StatusCode)
	}
}

func TestServiceTraceOffByDefault(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1}, nil)
	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if got := resp.Header.Get(TraceHeader); got != "" {
		t.Errorf("untraced submit carries %s=%q", TraceHeader, got)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.TraceID != "" {
		t.Errorf("untraced job has trace_id %q", fin.TraceID)
	}
	tresp := fetchTrace(t, ts.URL, st.ID, "")
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of an untraced job: HTTP %d, want 404", tresp.StatusCode)
	}
}

// Satellite: the metrics exposition must label its content types so
// Prometheus scrapes the text format and tools get real JSON.
func TestServiceMetricsContentTypes(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q, want the Prometheus text format", ct)
	}

	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=json: HTTP %d", jresp.StatusCode)
	}
	if ct := jresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics?format=json Content-Type = %q, want application/json", ct)
	}
	var mj metricsJSON
	if err := json.NewDecoder(jresp.Body).Decode(&mj); err != nil {
		t.Fatalf("JSON metrics do not decode: %v", err)
	}
	if mj.Workers != 1 {
		t.Errorf("metrics workers = %d, want 1", mj.Workers)
	}
}
