package service

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"powder/internal/obs"
	"powder/internal/obs/promtest"
)

// TestServiceLedgerEndpoint is the API acceptance scenario: a finished
// job exposes its run ledger, and the per-move realized gains sum to the
// headline power drop within 1e-9.
func TestServiceLedgerEndpoint(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1}, nil)
	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateCompleted {
		t.Fatalf("job %s: state %s (error %q)", st.ID, fin.State, fin.Error)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(r.Body)
		t.Fatalf("ledger: HTTP %d: %s", r.StatusCode, body)
	}
	var led obs.LedgerSummary
	if err := json.NewDecoder(r.Body).Decode(&led); err != nil {
		t.Fatalf("ledger JSON: %v", err)
	}
	if led.Applied != fin.Result.Applied {
		t.Errorf("ledger applied %d, result applied %d", led.Applied, fin.Result.Applied)
	}
	var sum float64
	for _, m := range led.Moves {
		sum += m.RealizedGain
	}
	if diff := math.Abs(sum - led.RealizedGain); diff > 1e-9 {
		t.Errorf("move sum %.12g != ledger total %.12g", sum, led.RealizedGain)
	}
	headline := fin.Result.InitialPower - fin.Result.FinalPower
	if diff := math.Abs(led.RealizedGain - headline); diff > 1e-9 {
		t.Errorf("ledger total %.12g != headline drop %.12g", led.RealizedGain, headline)
	}

	// Unknown job: 404.
	r2, err := http.Get(ts.URL + "/v1/jobs/nope/ledger")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job ledger: HTTP %d, want 404", r2.StatusCode)
	}
}

// TestServiceLedgerConflictWhileRunning pins the 409 while the job has
// not reached a terminal state.
func TestServiceLedgerConflictWhileRunning(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1}, func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	})
	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "maj3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("running job ledger: HTTP %d, want 409", r.StatusCode)
	}
	close(release)
	waitTerminal(t, ts.URL, st.ID)
}

// TestServiceMetricsPrometheus runs a job, scrapes /metrics, and checks
// the exposition parses, validates, and carries the service, runtime,
// ledger, and phase-time families. ?format=json keeps the snapshot.
func TestServiceMetricsPrometheus(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1}, nil)
	st, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateCompleted {
		t.Fatalf("job: state %s (error %q)", fin.State, fin.Error)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	pm, err := promtest.Validate(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, family := range []string{
		"powder_service_queue_depth",
		"powder_service_jobs_inflight",
		"powder_service_workers",
		"powder_pool_panics_total",
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
		"powder_service_jobs_submitted_total",
		"powder_core_ledger_attempts_total",
	} {
		if len(pm.Family(family)) == 0 {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	// The proof row of the phase histogram must expose the full
	// cumulative-bucket contract (the validator has already checked its
	// invariants).
	var proof int
	for _, s := range pm.Family("powder_core_phase_seconds") {
		if s.Labels["phase"] == "atpg-check" {
			proof++
		}
	}
	if proof < len(obs.ExpositionBounds)+3 {
		t.Errorf(`powder_core_phase_seconds{phase="atpg-check"} incomplete: %d samples`, proof)
	}

	// JSON stays available behind ?format=json.
	r2, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if ct := r2.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("json Content-Type = %q", ct)
	}
	var mj metricsJSON
	if err := json.NewDecoder(r2.Body).Decode(&mj); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if mj.Workers != 1 {
		t.Errorf("json workers = %d, want 1", mj.Workers)
	}
	if mj.Metrics.Counters["service.jobs.submitted"] == 0 {
		t.Errorf("json snapshot missing service.jobs.submitted: %+v", mj.Metrics.Counters)
	}
}
