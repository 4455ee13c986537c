package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"powder/internal/faultinject"
	"powder/internal/obs"
	"powder/internal/store"
)

// openTestStore opens a Store rooted in dir with the given registry and
// fails the test on error.
func openTestStore(t *testing.T, dir string, reg *obs.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheHitServedWithoutDispatch is the cache acceptance criterion:
// resubmitting an identical netlist under identical options is answered
// from the cache — the job is terminal on arrival, the result BLIF is
// byte-identical, and the hit is visible on the cache metrics and in the
// flight recorder without a second pool dispatch.
func TestCacheHitServedWithoutDispatch(t *testing.T) {
	reg := obs.NewRegistry()
	svc, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8, Registry: reg}, nil)

	body := circuitBLIF(t, "fig2")
	st1, resp := submit(t, ts.URL, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	fin1 := waitTerminal(t, ts.URL, st1.ID)
	if fin1.State != StateCompleted {
		t.Fatalf("first job: state %s (error %q)", fin1.State, fin1.Error)
	}
	if fin1.Cached {
		t.Fatal("first job claims to be cached")
	}
	j1, _ := svc.Job(st1.ID)
	blif1 := j1.ResultBLIF()
	if len(blif1) == 0 {
		t.Fatal("first job has no result BLIF")
	}

	// Same bytes, same options: must be a hit, complete on arrival.
	st2, resp := submit(t, ts.URL, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	if st2.State != StateCompleted || !st2.Cached {
		t.Fatalf("second job: state %s cached %t, want completed from cache", st2.State, st2.Cached)
	}
	j2, _ := svc.Job(st2.ID)
	if !bytes.Equal(j2.ResultBLIF(), blif1) {
		t.Fatal("cached result BLIF differs from the original run")
	}
	if got := reg.Counter("store.cache.hits").Value(); got != 1 {
		t.Fatalf("store.cache.hits = %d, want 1", got)
	}
	if got := reg.Counter("service.jobs.cached").Value(); got != 1 {
		t.Fatalf("service.jobs.cached = %d, want 1", got)
	}
	var flight struct {
		Entries []obs.FlightEntry `json:"entries"`
	}
	getJSON(t, ts.URL+"/debug/flight", &flight)
	if !slices.ContainsFunc(flight.Entries, func(e obs.FlightEntry) bool {
		return e.Kind == "event" && e.Name == "job-cached" && e.Fields["job"] == st2.ID
	}) {
		t.Errorf("/debug/flight holds no job-cached event for %s", st2.ID)
	}

	// A structurally identical circuit with *different* internal gate
	// names must also hit: the key is the structural hash, not the text.
	// fig2's only internal net is d (always written as "=d").
	renamed := bytes.ReplaceAll(body, []byte("=d"), []byte("=zz_renamed"))
	st3, _ := submit(t, ts.URL, "", renamed)
	if !st3.Cached {
		t.Fatalf("renamed-internals submission missed the cache (state %s)", st3.State)
	}

	// Different options (delay limit) must miss.
	st4, _ := submit(t, ts.URL, "?delay-limit=0", body)
	if st4.Cached {
		t.Fatal("submission with different options hit the cache")
	}
	waitTerminal(t, ts.URL, st4.ID)
}

// TestNoCacheBypassesHitAndFill covers the ?no-cache escape hatch: a
// bypassed submission is neither served from the cache nor published
// into it.
func TestNoCacheBypassesHitAndFill(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8}, nil)

	body := circuitBLIF(t, "fig2")
	st1, _ := submit(t, ts.URL, "?no-cache=1", body)
	if st1.Cached {
		t.Fatal("no-cache submission served from cache")
	}
	waitTerminal(t, ts.URL, st1.ID)
	svc.mu.Lock()
	n := len(svc.results)
	svc.mu.Unlock()
	if n != 0 {
		t.Fatalf("no-cache run populated the cache (%d keys)", n)
	}

	// Fill the cache with a normal run, then verify no-cache still runs.
	st2, _ := submit(t, ts.URL, "", body)
	waitTerminal(t, ts.URL, st2.ID)
	st3, _ := submit(t, ts.URL, "?no-cache=1", body)
	if st3.Cached {
		t.Fatal("no-cache submission hit the warm cache")
	}
	waitTerminal(t, ts.URL, st3.ID)
}

// TestCacheMetricsWithoutStore pins the cache series /metrics exposes on
// a daemon without a store: two runs fill two keys, three concurrent
// duplicates hit them, and a ?no-cache duplicate counts as neither.
func TestCacheMetricsWithoutStore(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8}, nil)
	bodies := [][]byte{circuitBLIF(t, "fig2"), circuitBLIF(t, "maj3")}
	for _, body := range bodies {
		st, _ := submit(t, ts.URL, "", body)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateCompleted || fin.Cached {
			t.Fatalf("run %s: state %s cached %t", st.ID, fin.State, fin.Cached)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || !st.Cached {
				t.Errorf("duplicate: HTTP %d cached %t (err %v), want a hit", resp.StatusCode, st.Cached, err)
			}
		}(bodies[i%2])
	}
	wg.Wait()
	st, _ := submit(t, ts.URL, "?no-cache=1", bodies[0])
	if fin := waitTerminal(t, ts.URL, st.ID); fin.Cached {
		t.Fatal("no-cache duplicate served from the cache")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	prom := string(b)
	for _, want := range []string{
		"\npowder_store_cache_entries 2\n",
		"\npowder_store_cache_hits_total 3\n",
		"\npowder_store_cache_misses_total 2\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	if strings.Contains(prom, "evictions") {
		t.Error("/metrics still exposes a cache evictions family")
	}
}

// TestRestoreServesCompletedJobs restarts the service over the same
// store directory and checks that a finished job survives with its ID,
// state, result, and byte-identical BLIF — and that the restored record
// re-warms the result cache, which is in memory only.
func TestRestoreServesCompletedJobs(t *testing.T) {
	dir := t.TempDir()

	reg1 := obs.NewRegistry()
	st1 := openTestStore(t, dir, reg1)
	svc1 := New(Config{Workers: 2, QueueDepth: 8, Registry: reg1, Store: st1})
	j, err := svc1.Submit(circuitBLIF(t, "fig2"), JobOptions{DelayLimitPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !j.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	id := j.ID()
	want := append([]byte(nil), j.ResultBLIF()...)
	wantResult := j.Status().Result
	wantLedger := j.Ledger()
	svc1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	st2 := openTestStore(t, dir, reg2)
	svc2 := New(Config{Workers: 2, QueueDepth: 8, Registry: reg2, Store: st2})
	defer func() { svc2.Close(); st2.Close() }()
	requeued, served := svc2.Restore()
	if requeued != 0 || served != 1 {
		t.Fatalf("Restore = (%d requeued, %d served), want (0, 1)", requeued, served)
	}
	rj, ok := svc2.Job(id)
	if !ok {
		t.Fatalf("job %s not restored", id)
	}
	rst := rj.Status()
	if rst.State != StateCompleted {
		t.Fatalf("restored job state %s, want completed", rst.State)
	}
	if !bytes.Equal(rj.ResultBLIF(), want) {
		t.Fatal("restored result BLIF differs from the pre-restart bytes")
	}
	if rst.Result == nil || wantResult == nil || rst.Result.FinalPower != wantResult.FinalPower {
		t.Fatalf("restored result %+v, want %+v", rst.Result, wantResult)
	}
	if got := rj.Ledger(); len(got) == 0 || !bytes.Equal(got, wantLedger) {
		t.Fatalf("restored ledger %s, want %s", got, wantLedger)
	}
	// The restored record re-warmed the fresh cache: a duplicate
	// submission is a hit even though this process never ran the job.
	dup, err := svc2.Submit(circuitBLIF(t, "fig2"), JobOptions{DelayLimitPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Status().Cached {
		t.Fatal("duplicate submission after restore missed the re-warmed cache")
	}
}

// TestRestoreRequeuesInterruptedJob replays a store holding a job that
// was still queued at "crash" time and checks the restarted service
// runs it to completion under its original ID.
func TestRestoreRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	seed := openTestStore(t, dir, obs.NewRegistry())
	ob, _ := json.Marshal(JobOptions{DelayLimitPct: -1})
	seed.AppendSubmit(store.JobRecord{
		ID: "j000042", State: store.StateQueued, Circuit: "fig2",
		Options: ob, Input: circuitBLIF(t, "fig2"), SubmittedAt: time.Now(),
	})
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st := openTestStore(t, dir, reg)
	svc := New(Config{Workers: 2, QueueDepth: 8, Registry: reg, Store: st})
	defer func() { svc.Close(); st.Close() }()
	requeued, served := svc.Restore()
	if requeued != 1 || served != 0 {
		t.Fatalf("Restore = (%d requeued, %d served), want (1, 0)", requeued, served)
	}
	j, ok := svc.Job("j000042")
	if !ok {
		t.Fatal("requeued job not registered under its original ID")
	}
	deadline := time.Now().Add(60 * time.Second)
	for !j.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("requeued job never finished (state %s)", j.Status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st2 := j.Status(); st2.State != StateCompleted {
		t.Fatalf("requeued job state %s (error %q)", st2.State, st2.Error)
	}
	// The ID sequence resumed past the recovered ID: a fresh submission
	// must not collide with j000042.
	nj, err := svc.Submit(circuitBLIF(t, "maj3"), JobOptions{DelayLimitPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID() <= "j000042" {
		t.Fatalf("fresh job ID %s did not resume past the recovered sequence", nj.ID())
	}
}

// TestCancelQueuedPurgesStore is the cancel-purge regression test: a
// DELETE on a still-queued job removes its journal entry, so a restart
// does not resurrect the cancelled work.
func TestCancelQueuedPurgesStore(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := openTestStore(t, dir, reg)

	release := make(chan struct{})
	svc := New(Config{Workers: 1, QueueDepth: 8, Registry: reg, Store: st})
	svc.testBeforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	blocker, err := svc.Submit(circuitBLIF(t, "fig2"), JobOptions{DelayLimitPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.Submit(circuitBLIF(t, "maj3"), JobOptions{DelayLimitPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The single worker is pinned on the blocker, so the victim is
	// provably still queued when the cancel lands.
	cancelled, found := svc.Cancel(victim.ID())
	if !cancelled || !found {
		t.Fatalf("Cancel(%s) = (%t, %t)", victim.ID(), cancelled, found)
	}
	close(release)
	deadline := time.Now().Add(60 * time.Second)
	for !blocker.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("blocker never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, obs.NewRegistry())
	defer st2.Close()
	recs := st2.Jobs()
	for _, rec := range recs {
		if rec.ID == victim.ID() {
			t.Fatalf("cancelled queued job %s survived in the store (state %s)", rec.ID, rec.State)
		}
	}
	var foundBlocker bool
	for _, rec := range recs {
		if rec.ID == blocker.ID() && rec.State == store.StateCompleted {
			foundBlocker = true
		}
	}
	if !foundBlocker {
		t.Fatal("completed blocker missing from the store after reopen")
	}
}

// TestFinishedJobReleasesInputs checks that a finished job keeps only
// what it serves: a verified run, a cancelled queued job and a cache hit
// hold no netlist, probabilities, activity binding or uploaded dump, and
// the hit shares the run's result, BLIF and ledger JSON instead of
// keeping its own copies.
func TestFinishedJobReleasesInputs(t *testing.T) {
	release := make(chan struct{})
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8},
		func(ctx context.Context, j *Job) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		})

	vcd, _ := dumpsFor(t, "fig2", 3)
	parts := map[string][]byte{"circuit": circuitBLIF(t, "fig2"), "activity": vcd}
	run, resp := submitMultipart(t, ts.URL, "?verify=1", parts)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// The single worker is held on run, so this job is still queued.
	queued, _ := submit(t, ts.URL, "", circuitBLIF(t, "maj3"))
	if cancelled, _ := svc.Cancel(queued.ID); !cancelled {
		t.Fatal("queued job was not cancellable")
	}
	close(release)
	if st := waitTerminal(t, ts.URL, run.ID); st.State != StateCompleted || st.Result.Verified != "equivalent" {
		t.Fatalf("run: state %s, result %+v (error %q)", st.State, st.Result, st.Error)
	}
	hit, _ := submitMultipart(t, ts.URL, "?verify=1", parts)
	if !hit.Cached {
		t.Fatal("resubmission missed the cache")
	}

	for _, id := range []string{run.ID, queued.ID, hit.ID} {
		j, _ := svc.Job(id)
		j.mu.Lock()
		held := j.nl != nil || j.circ != nil || j.original != nil ||
			j.inputProbs != nil || j.binding != nil || j.opts.ActivityDump != nil
		j.mu.Unlock()
		if held {
			t.Errorf("finished job %s still holds run-only inputs", id)
		}
	}
	hj, _ := svc.Job(hit.ID)
	rj, _ := svc.Job(run.ID)
	if hj.Status().Result != rj.Status().Result {
		t.Error("cache hit does not share the run's result")
	}
	if b := rj.ResultBLIF(); len(b) == 0 || &hj.ResultBLIF()[0] != &b[0] {
		t.Error("cache hit does not share the run's result BLIF")
	}
	if led := rj.Ledger(); len(led) == 0 || &hj.Ledger()[0] != &led[0] {
		t.Error("the run and the hit do not share one ledger JSON")
	}
}

// TestDegradedStoreKeepsServing runs the service on a store whose disk
// fails from the first write: jobs still complete and serve their
// results, and /healthz and /metrics report the lost durability.
func TestDegradedStoreKeepsServing(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Registry: reg,
		Hooks: &store.Hooks{AppendErr: faultinject.FailWritesAfter(0)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, Registry: reg, Store: st}, nil)

	sub, resp := submit(t, ts.URL, "", circuitBLIF(t, "fig2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts.URL, sub.ID); fin.State != StateCompleted {
		t.Fatalf("job: state %s (error %q)", fin.State, fin.Error)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if got := get("/v1/jobs/" + sub.ID + "/result.blif"); !strings.Contains(got, ".model") {
		t.Errorf("result.blif is not a BLIF: %q", got)
	}
	var h health
	if err := json.Unmarshal([]byte(get("/healthz")), &h); err != nil || h.Store != "degraded" {
		t.Errorf("healthz store = %q (err %v), want degraded", h.Store, err)
	}
	if got := get("/metrics"); !strings.Contains(got, "\npowder_store_degraded 1\n") {
		t.Error("/metrics lacks powder_store_degraded 1")
	}
}

// TestQueuedCancelRace races a DELETE against the pool dequeuing the
// same job, repeatedly; run under -race this covers the
// queued -> cancelled transition window. Whichever side wins, the job
// must end exactly cancelled and the service must stay consistent.
// Every submission bypasses the cache: a later blocker would otherwise
// be answered by the first one's result and never reach the worker.
func TestQueuedCancelRace(t *testing.T) {
	release := make(chan struct{})
	svc := New(Config{Workers: 1, QueueDepth: 8})
	svc.testBeforeRun = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer svc.Close()

	body := circuitBLIF(t, "fig2")
	opts := JobOptions{DelayLimitPct: -1, NoCache: true}
	for i := 0; i < 25; i++ {
		blocker, err := svc.Submit(body, opts)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := svc.Submit(body, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Unpin the worker: it finishes the blocker and dequeues the
			// victim, racing the concurrent cancel below.
			release <- struct{}{}
		}()
		go func() {
			defer wg.Done()
			if _, found := svc.Cancel(victim.ID()); !found {
				t.Errorf("iter %d: victim %s not found", i, victim.ID())
			}
		}()
		wg.Wait()
		deadline := time.Now().Add(60 * time.Second)
		for !victim.Status().State.Terminal() || !blocker.Status().State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: jobs never settled (victim %s, blocker %s)",
					i, victim.Status().State, blocker.Status().State)
			}
			time.Sleep(time.Millisecond)
		}
		if st := victim.Status().State; st != StateCancelled {
			t.Fatalf("iter %d: victim state %s, want cancelled", i, st)
		}
		if st := blocker.Status().State; st != StateCompleted {
			t.Fatalf("iter %d: blocker state %s, want completed", i, st)
		}
	}
}

// TestRetryAfterSeconds pins the queue-depth-derived Retry-After hint
// with a deterministic jitter source.
func TestRetryAfterSeconds(t *testing.T) {
	noJitter := func(int) int { return 0 }
	maxJitter := func(n int) int { return n - 1 }
	cases := []struct {
		depth, workers int
		intn           func(int) int
		want           int
	}{
		{0, 4, noJitter, 1},       // empty queue: retry in a second
		{0, 4, maxJitter, 1},      // jitter bounded by base
		{8, 4, noJitter, 3},       // 1 + 8/4
		{8, 4, maxJitter, 5},      // 3 + 2
		{1000, 4, noJitter, 30},   // base capped at 30
		{1000, 4, maxJitter, 59},  // 30 + 29
		{1000, 0, noJitter, 30},   // workers clamped to 1
		{10, 1, noJitter, 11},     // backlog-per-worker scales
		{10000, 1, maxJitter, 59}, // overall cap below 60
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.workers, c.intn); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.depth, c.workers, got, c.want)
		}
	}
	// The real jitter source must stay within [1, 60] everywhere.
	for depth := 0; depth < 500; depth += 7 {
		got := retryAfterSeconds(depth, 3, func(n int) int { return n / 2 })
		if got < 1 || got > 60 {
			t.Fatalf("retryAfterSeconds(%d, 3) = %d out of [1, 60]", depth, got)
		}
	}
}

// TestQueueFullRetryAfterHeader checks the 429 response carries a
// positive integer Retry-After derived at rejection time.
func TestQueueFullRetryAfterHeader(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	})

	body := circuitBLIF(t, "fig2")
	// One running (pinned), one queued: the queue is now full.
	if _, resp := submit(t, ts.URL, "", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts.URL, "", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	_, resp := submit(t, ts.URL, "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	n, err := strconv.Atoi(ra)
	if err != nil || n < 1 || n > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
}
