package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powder/internal/blif"
	"powder/internal/cellib"
)

// circuitBLIF loads one of the committed example circuits.
func circuitBLIF(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "circuits", name+".blif"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestService builds a service plus an httptest server and tears
// both down with the test.
func newTestService(t *testing.T, cfg Config, beforeRun func(ctx context.Context, j *Job)) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	svc.testBeforeRun = beforeRun
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// submit POSTs a circuit and decodes the response.
func submit(t *testing.T, base, query string, body []byte) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the predicate holds or the deadline passes.
func waitState(t *testing.T, base, id string, pred func(Status) bool, what string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %+v)", id, what, getStatus(t, base, id))
	return Status{}
}

func waitTerminal(t *testing.T, base, id string) Status {
	return waitState(t, base, id, func(st Status) bool { return st.State.Terminal() }, "a terminal state")
}

func TestServiceEndToEndConcurrentVerified(t *testing.T) {
	// Workers hold every job until all are submitted: a small job can
	// otherwise finish before its own submit response is written. A
	// failed test cancels the held jobs when the service closes.
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 4, QueueDepth: 16}, func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	})
	names := []string{"fig2", "maj3"}
	const n = 8
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		st, resp := submit(t, ts.URL, "?verify=1", circuitBLIF(t, names[i%2]))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		if st.State != StateQueued && st.State != StateRunning {
			t.Fatalf("submit %d: state %q", i, st.State)
		}
		ids[i] = st.ID
	}
	close(release)
	lib := cellib.Lib2()
	for i, id := range ids {
		st := waitTerminal(t, ts.URL, id)
		if st.State != StateCompleted {
			t.Fatalf("job %s: state %s (error %q)", id, st.State, st.Error)
		}
		if st.Result == nil {
			t.Fatalf("job %s: no result", id)
		}
		if st.Result.Verified != "equivalent" {
			t.Fatalf("job %s: verified = %q, want equivalent", id, st.Result.Verified)
		}
		if st.Result.Stopped != "completed" {
			t.Fatalf("job %s: stopped = %q", id, st.Result.Stopped)
		}
		if st.Circuit != names[i%2] {
			t.Fatalf("job %s: circuit %q, want %q", id, st.Circuit, names[i%2])
		}
		// The result download must be a parseable mapped BLIF.
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result.blif")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
		}
		if _, err := blif.Read(bytes.NewReader(body), lib); err != nil {
			t.Fatalf("result %s is not valid BLIF: %v", id, err)
		}
	}

	// The event stream of a finished untraced job replays its lifecycle,
	// and nothing else: the engine's events are span ends, which only a
	// traced job streams.
	seen := map[string]bool{}
	for _, rec := range jobEvents(t, ts.URL, ids[0]) {
		name, _ := rec["event"].(string)
		seen[name] = true
		if !strings.HasPrefix(name, "job-") {
			t.Errorf("untraced job streamed a %q event: %v", name, rec)
		}
	}
	for _, want := range []string{"job-queued", "job-started", "job-finished"} {
		if !seen[want] {
			t.Fatalf("event stream missing %q (saw %v)", want, seen)
		}
	}

	// /metrics reflects the final counters.
	metrics := getMetrics(t, ts.URL)
	if !strings.Contains(metrics, "service.jobs.completed") {
		t.Fatalf("metrics missing completed counter:\n%s", metrics)
	}
	if got := metricValue(t, metrics, "service.jobs.completed"); got != n {
		t.Fatalf("service.jobs.completed = %d, want %d", got, n)
	}
}

// jobEvents reads a finished job's NDJSON event stream.
func jobEvents(t *testing.T, base, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	var recs []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// getMetrics fetches the JSON metrics snapshot (/metrics?format=json).
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// metricValue extracts one registry counter from the JSON snapshot.
func metricValue(t *testing.T, metrics, name string) int64 {
	t.Helper()
	var mj metricsJSON
	if err := json.Unmarshal([]byte(metrics), &mj); err != nil {
		t.Fatalf("metrics JSON unparseable: %v\n%s", err, metrics)
	}
	v, ok := mj.Metrics.Counters[name]
	if !ok {
		t.Fatalf("metric %s not found in:\n%s", name, metrics)
	}
	return v
}

func TestServiceQueueOverflowReturns429(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1},
		func(ctx context.Context, j *Job) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		})

	st1, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", resp.StatusCode)
	}
	// Wait until job 1 occupies the worker so the queue is empty again.
	waitState(t, ts.URL, st1.ID, func(st Status) bool { return st.State == StateRunning }, "running")

	st2, resp := submit(t, ts.URL, "", circuitBLIF(t, "maj3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", resp.StatusCode)
	}
	_, resp = submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	for _, id := range []string{st1.ID, st2.ID} {
		if st := waitTerminal(t, ts.URL, id); st.State != StateCompleted {
			t.Fatalf("job %s: state %s after release", id, st.State)
		}
	}
	metrics := getMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "service.jobs.rejected"); got != 1 {
		t.Fatalf("service.jobs.rejected = %d, want 1", got)
	}
	if got := metricValue(t, metrics, "service.jobs.completed"); got != 2 {
		t.Fatalf("service.jobs.completed = %d, want 2", got)
	}
}

func TestServiceCancelRunningJob(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4},
		func(ctx context.Context, j *Job) { <-ctx.Done() })

	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "maj3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", dresp.StatusCode)
	}

	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", fin.State)
	}
	if fin.Result == nil || fin.Result.Stopped != "cancelled" {
		t.Fatalf("result = %+v, want stop reason cancelled", fin.Result)
	}
	// Cancelling a finished job is a clean conflict-free no-op.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("second DELETE: HTTP %d", dresp.StatusCode)
	}
}

func TestServiceCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4},
		func(ctx context.Context, j *Job) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		})
	defer close(release)

	st1, _ := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	waitState(t, ts.URL, st1.ID, func(s Status) bool { return s.State == StateRunning }, "running")
	st2, resp := submit(t, ts.URL, "", circuitBLIF(t, "maj3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	fin := waitTerminal(t, ts.URL, st2.ID)
	if fin.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", fin.State)
	}
	if fin.StartedAt != nil {
		t.Fatalf("queued job was started: %+v", fin)
	}
}

func TestServiceDrainRejectsNewAndFinishesInFlight(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8}, nil)

	st1, _ := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	st2, _ := submit(t, ts.URL, "", circuitBLIF(t, "maj3"))

	svc.BeginDrain()
	if _, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", hresp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		if st := getStatus(t, ts.URL, id); st.State != StateCompleted {
			t.Fatalf("job %s after drain: state %s", id, st.State)
		}
	}
	metrics := getMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "service.jobs.completed"); got != 2 {
		t.Fatalf("service.jobs.completed = %d, want 2", got)
	}
}

func TestServiceDrainDeadlineCancelsInFlight(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4},
		func(ctx context.Context, j *Job) { <-ctx.Done() })

	st, _ := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	waitState(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Fatal("expected a deadline error from forced drain")
	}
	fin := getStatus(t, ts.URL, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("forced-drain job state = %s, want cancelled", fin.State)
	}
}

func TestServiceJobDeadlineCompletesWithBestResult(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2, QueueDepth: 4}, nil)
	st, resp := submit(t, ts.URL, "?timeout=1ns", circuitBLIF(t, "maj3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateCompleted {
		t.Fatalf("state = %s, want completed (deadline runs keep their best result)", fin.State)
	}
	if fin.Result == nil || fin.Result.Stopped != "deadline" {
		t.Fatalf("result = %+v, want stop reason deadline", fin.Result)
	}
}

func TestServiceDelayLimitOption(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4}, nil)
	st, resp := submit(t, ts.URL, "?delay-limit=0&verify=true", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateCompleted {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	if fin.Result.FinalDelay > fin.Result.InitialDelay+1e-9 {
		t.Fatalf("delay-limit=0 violated: %v -> %v", fin.Result.InitialDelay, fin.Result.FinalDelay)
	}
}

func TestServiceBadRequests(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4}, nil)
	cases := []struct {
		query string
		body  string
		want  int
	}{
		{"", ".model broken\n.inputs a\n", http.StatusBadRequest},      // truncated BLIF
		{"?timeout=banana", ".model x\n.end\n", http.StatusBadRequest}, // bad option
		{"?delay-limit=-5", ".model x\n.end\n", http.StatusBadRequest}, // negative limit
		{"?max-subs=nope", ".model x\n.end\n", http.StatusBadRequest},  // bad int
		{"?verify=perhaps", ".model x\n.end\n", http.StatusBadRequest}, // bad bool
	}
	for _, c := range cases {
		_, resp := submit(t, ts.URL, c.query, []byte(c.body))
		if resp.StatusCode != c.want {
			t.Fatalf("POST %q: HTTP %d, want %d", c.query, resp.StatusCode, c.want)
		}
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result.blif", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServiceRejectsNonFiniteDelayLimit pins that a NaN or infinite
// delay-limit is a bad request. A job holding one has a status that JSON
// cannot encode, so accepting it would leave every later job listing
// empty.
func TestServiceRejectsNonFiniteDelayLimit(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4}, nil)
	for _, v := range []string{"NaN", "Inf", "+Inf"} {
		resp, err := http.Post(ts.URL+"/v1/jobs?delay-limit="+url.QueryEscape(v), "text/plain",
			bytes.NewReader(circuitBLIF(t, "fig2")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("delay-limit=%s: HTTP %d, want 400", v, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []Status
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("GET /v1/jobs: HTTP %d, body does not decode: %v", resp.StatusCode, err)
	}
}

func TestServiceResultNotReadyConflict(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4},
		func(ctx context.Context, j *Job) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		})
	defer close(release)
	st, _ := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	waitState(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result.blif")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: HTTP %d, want 409", resp.StatusCode)
	}
}
