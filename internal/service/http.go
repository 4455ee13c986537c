package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"time"

	"powder/internal/obs"
	"powder/internal/obs/trace"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs                submit a BLIF circuit (body) with query
//	                               options timeout, delay-limit, max-subs,
//	                               verify, probs (comma-separated name=p
//	                               input probabilities), and no-cache
//	                               (bypass the content-addressed result
//	                               cache); a multipart/form-data body
//	                               carries the BLIF as part "circuit"
//	                               plus an optional part "activity" (a
//	                               VCD or SAIF workload dump whose
//	                               matched signals replace the uniform
//	                               switching assumption and key the
//	                               result cache by content digest);
//	                               sequential circuits (.latch)
//	                               are cut at their register boundaries
//	                               and returned with the latches stitched
//	                               back; 202 + job status (completed on
//	                               arrival with "cached" set when served
//	                               from the cache), 429 + a queue-depth-
//	                               derived Retry-After when the queue is
//	                               full, 503 while draining
//	GET    /v1/jobs                all job statuses in submission order
//	GET    /v1/jobs/{id}           one job's status
//	GET    /v1/jobs/{id}/result.blif  the optimized netlist
//	GET    /v1/jobs/{id}/events    the job's event stream as NDJSON: its
//	                               job-* lifecycle events and, for a
//	                               traced job, its span ends
//	GET    /v1/jobs/{id}/ledger    the run ledger (substitution provenance
//	                               + per-node power attribution) of a
//	                               finished job; 409 while running
//	GET    /v1/jobs/{id}/trace     the span tree of a traced job
//	                               (Config.TraceSample); 409 while
//	                               running, ?format=perfetto renders
//	                               Chrome/Perfetto trace-event JSON
//	POST   /v1/jobs/{id}/spans     stitch client-recorded spans into a
//	                               traced job's forest (the
//	                               client.UploadSpans target); the body
//	                               is a JSON array of trace records
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /healthz                liveness + drain state
//	GET    /metrics                Prometheus text exposition (counters,
//	                               histograms incl. per-endpoint
//	                               powder_http_request_seconds{path,code},
//	                               runtime collectors); ?format=json
//	                               keeps the JSON snapshot
//	GET    /debug/status           live introspection: queue depth,
//	                               per-worker current job, active jobs
//	                               with their open span stacks, drop
//	                               counters
//	GET    /debug/flight           the process flight recorder: the most
//	                               recent events, spans, requests, and
//	                               counter deltas as one JSON document
//
// Responses for traced jobs carry the trace ID in an X-Powder-Trace
// header, correlating access logs with span trees. A submission that
// itself carries X-Powder-Trace (and optionally X-Powder-Parent) is
// traced unconditionally under the client's trace ID, with the job root
// span parented under the client's span — the cross-process half of the
// stitched trace served at /v1/jobs/{id}/trace.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleStatus)
	handle("GET /v1/jobs/{id}/result.blif", s.handleResult)
	handle("GET /v1/jobs/{id}/events", s.handleEvents)
	handle("GET /v1/jobs/{id}/ledger", s.handleLedger)
	handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	handle("POST /v1/jobs/{id}/spans", s.handleSpans)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /healthz", s.handleHealth)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /debug/status", s.handleDebugStatus)
	handle("GET /debug/flight", s.handleDebugFlight)
	return mux
}

// TraceHeader is the header carrying a trace ID: on responses, a traced
// job's ID; on submissions, a client trace ID the job should adopt.
const TraceHeader = "X-Powder-Trace"

// TraceParentHeader is the request header carrying the client's current
// span ID (decimal); the job root span parents under it.
const TraceParentHeader = "X-Powder-Parent"

// statusWriter captures the response code for the request-duration
// histogram. It forwards Flush so the NDJSON event stream keeps
// streaming through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint accounting: every
// request lands in the powder_http_request_seconds{path,code} histogram
// family — labeled by route pattern, not raw URL, so cardinality stays
// bounded — and in the process flight recorder.
func (s *Service) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	path := pattern
	if _, p, ok := strings.Cut(pattern, " "); ok {
		path = p
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start).Seconds()
		code := strconv.Itoa(sw.code)
		s.reg.Histogram(obs.Labeled("http.request.seconds", "path", path, "code", code)).Observe(elapsed)
		obs.Flight().Record("http", r.Method+" "+path, obs.Fields{"code": sw.code, "seconds": elapsed})
	}
}

// setTraceHeader stamps a traced job's ID onto the response.
func setTraceHeader(w http.ResponseWriter, j *Job) {
	if id := j.TraceID(); id != "" {
		w.Header().Set(TraceHeader, id)
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// parseJobOptions reads the submission options from the query string.
func parseJobOptions(r *http.Request) (JobOptions, error) {
	q := r.URL.Query()
	opts := JobOptions{DelayLimitPct: -1}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return opts, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 30s)", v)
		}
		opts.Timeout = d
	}
	if v := q.Get("delay-limit"); v != "" {
		pct, err := strconv.ParseFloat(v, 64)
		if err != nil || pct < 0 || math.IsNaN(pct) || math.IsInf(pct, 0) {
			return opts, fmt.Errorf("bad delay-limit %q (want a finite percentage >= 0)", v)
		}
		opts.DelayLimitPct = pct
	}
	if v := q.Get("max-subs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad max-subs %q (want an integer >= 0)", v)
		}
		opts.MaxSubstitutions = n
	}
	if v := q.Get("verify"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad verify %q (want a boolean)", v)
		}
		opts.Verify = b
	}
	if v := q.Get("probs"); v != "" {
		// Comma-separated name=p entries become the newline-separated
		// powder -probs format; Submit validates names and ranges.
		opts.Probs = strings.ReplaceAll(v, ",", "\n")
	}
	if v := q.Get("no-cache"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad no-cache %q (want a boolean)", v)
		}
		opts.NoCache = b
	}
	if v := q.Get("par"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad par %q (want an integer >= 0)", v)
		}
		opts.Parallelism = n
	}
	return opts, nil
}

// retryAfterSeconds derives the 429 Retry-After hint from the current
// backlog: roughly the queued-jobs-per-worker count, jittered uniformly
// up to twice that so a thundering herd of rejected clients does not
// resynchronize on a constant. intn is the jitter source (injectable
// for tests); the result is in [1, 60].
func retryAfterSeconds(depth, workers int, intn func(int) int) int {
	if workers < 1 {
		workers = 1
	}
	base := 1 + depth/workers
	if base > 30 {
		base = 30
	}
	ra := base + intn(base)
	if ra > 60 {
		ra = 60
	}
	return ra
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	opts, err := parseJobOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if tid := r.Header.Get(TraceHeader); tid != "" {
		opts.TraceID = tid
		if p := r.Header.Get(TraceParentHeader); p != "" {
			// An unparsable parent degrades to a root-level job span
			// rather than rejecting the submission.
			if n, perr := strconv.ParseInt(p, 10, 64); perr == nil && n > 0 {
				opts.TraceParent = n
			}
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// A multipart body carries the circuit plus an optional workload
	// activity dump as named parts; a plain body is the BLIF alone.
	if mt, params, merr := mime.ParseMediaType(r.Header.Get("Content-Type")); merr == nil && mt == "multipart/form-data" {
		body, opts.ActivityDump, err = splitMultipartSubmit(body, params["boundary"])
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	j, err := s.Submit(body, opts)
	switch {
	case err == nil:
		setTraceHeader(w, j)
		writeJSON(w, http.StatusAccepted, j.Status())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		ra := retryAfterSeconds(s.QueueDepth(), s.Workers(), rand.IntN)
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		var pe *ParseError
		if errors.As(err, &pe) {
			writeError(w, http.StatusBadRequest, "parse: %v", pe.Err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// splitMultipartSubmit extracts the "circuit" (required) and "activity"
// (optional) parts of a multipart submission. Unknown part names are
// rejected so typos fail loudly instead of silently running uniform.
func splitMultipartSubmit(body []byte, boundary string) (circuit, activityDump []byte, err error) {
	if boundary == "" {
		return nil, nil, errors.New("multipart submission without a boundary")
	}
	mr := multipart.NewReader(bytes.NewReader(body), boundary)
	for {
		p, perr := mr.NextPart()
		if perr == io.EOF {
			break
		}
		if perr != nil {
			return nil, nil, fmt.Errorf("bad multipart body: %v", perr)
		}
		data, rerr := io.ReadAll(p)
		if rerr != nil {
			return nil, nil, fmt.Errorf("reading part %q: %v", p.FormName(), rerr)
		}
		switch p.FormName() {
		case "circuit":
			circuit = data
		case "activity":
			activityDump = data
		default:
			return nil, nil, fmt.Errorf("unknown multipart part %q (want \"circuit\" and optionally \"activity\")", p.FormName())
		}
	}
	if circuit == nil {
		return nil, nil, errors.New("multipart submission without a \"circuit\" part")
	}
	return circuit, activityDump, nil
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.JobsSnapshot())
}

func (s *Service) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOr404(w, r); ok {
		setTraceHeader(w, j)
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	st := j.Status()
	blifText := j.ResultBLIF()
	switch {
	case !st.State.Terminal():
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", j.ID(), st.State)
	case blifText == nil:
		writeError(w, http.StatusNotFound, "job %s finished %s without a result", j.ID(), st.State)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(blifText)
	}
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	events, cancel := j.Hub().Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case e, open := <-events:
			if !open {
				return // job finished and the stream is drained
			}
			if err := enc.Encode(obs.EventRecord(e)); err != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleLedger(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	st := j.Status()
	led := j.Ledger()
	switch {
	case !st.State.Terminal():
		writeError(w, http.StatusConflict, "job %s is %s; ledger not ready", j.ID(), st.State)
	case len(led) == 0:
		writeError(w, http.StatusNotFound, "job %s finished %s without a ledger", j.ID(), st.State)
	default:
		writeJSON(w, http.StatusOK, led)
	}
}

// traceJSON is the GET /v1/jobs/{id}/trace payload.
type traceJSON struct {
	Trace   string         `json:"trace"`
	Spans   []trace.Record `json:"spans"`
	Dropped int64          `json:"dropped,omitempty"`
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	st := j.Status()
	tr := j.Tracer()
	switch {
	case tr == nil:
		writeError(w, http.StatusNotFound, "job %s was not traced; start powderd with -trace-sample", j.ID())
	case !st.State.Terminal():
		// A running job's tree is still growing; /debug/status shows the
		// live span stack instead.
		writeError(w, http.StatusConflict, "job %s is %s; trace not complete", j.ID(), st.State)
	default:
		setTraceHeader(w, j)
		spans := tr.Snapshot()
		if r.URL.Query().Get("format") == "perfetto" {
			w.Header().Set("Content-Type", "application/json")
			_ = trace.WritePerfetto(w, spans)
			return
		}
		writeJSON(w, http.StatusOK, traceJSON{Trace: tr.ID(), Spans: spans, Dropped: tr.Dropped()})
	}
}

// spansAccepted is the POST /v1/jobs/{id}/spans payload.
type spansAccepted struct {
	Adopted int `json:"adopted"`
}

func (s *Service) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	tr := j.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "job %s was not traced; nothing to stitch spans into", j.ID())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var spans []trace.Record
	if err := json.Unmarshal(body, &spans); err != nil {
		writeError(w, http.StatusBadRequest, "bad span payload: %v", err)
		return
	}
	for i, rec := range spans {
		if err := tr.Adopt(rec); err != nil {
			writeError(w, http.StatusBadRequest, "span %d: %v", i, err)
			return
		}
	}
	setTraceHeader(w, j)
	writeJSON(w, http.StatusAccepted, spansAccepted{Adopted: len(spans)})
}

func (s *Service) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	f := obs.Flight()
	// Fold the counter movement since the last sample into the ring
	// right before dumping, so the snapshot ends with current rates.
	f.SampleMetrics(s.reg)
	w.Header().Set("Content-Type", "application/json")
	_ = f.WriteJSON(w)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	cancelled, _ := s.Cancel(j.ID())
	st := j.Status()
	if !cancelled && !st.State.Terminal() {
		writeError(w, http.StatusConflict, "job %s could not be cancelled", j.ID())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// health is the /healthz payload.
type health struct {
	Status     string `json:"status"`
	Draining   bool   `json:"draining"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	InFlight   int64  `json:"in_flight"`
	// Store is "" without a persistent store, "ok" while durable, and
	// "degraded" once a write failure forced in-memory-only operation.
	Store string `json:"store,omitempty"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := health{
		Status:     "ok",
		Draining:   s.Draining(),
		Workers:    s.Workers(),
		QueueDepth: s.QueueDepth(),
		InFlight:   s.InFlight(),
	}
	if st := s.cfg.Store; st != nil {
		h.Store = "ok"
		if st.Degraded() {
			h.Store = "degraded"
		}
	}
	code := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// metricsJSON is the ?format=json payload of /metrics: the live service
// gauges plus the registry snapshot.
type metricsJSON struct {
	QueueDepth int          `json:"queue_depth"`
	InFlight   int64        `json:"in_flight"`
	Workers    int          `json:"workers"`
	PoolPanics int64        `json:"pool_panics"`
	Metrics    obs.Snapshot `json:"metrics"`
}

// debugWorker is one worker's row in /debug/status.
type debugWorker struct {
	Worker int `json:"worker"`
	// Job is the running job's ID, "" for an idle worker.
	Job string `json:"job,omitempty"`
}

// debugJob is one active (queued or running) job in /debug/status; for
// traced jobs SpanStack holds the currently open spans root-first — the
// live "where is this job right now" view.
type debugJob struct {
	ID        string         `json:"id"`
	State     State          `json:"state"`
	Circuit   string         `json:"circuit"`
	TraceID   string         `json:"trace_id,omitempty"`
	SpanStack []trace.Record `json:"span_stack,omitempty"`
}

// debugStatus is the GET /debug/status payload.
type debugStatus struct {
	Draining      bool          `json:"draining"`
	Workers       []debugWorker `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	InFlight      int64         `json:"in_flight"`
	ActiveJobs    []debugJob    `json:"active_jobs"`
	PoolPanics    int64         `json:"pool_panics"`
	DroppedEvents int64         `json:"dropped_events"`
	DroppedSpans  int64         `json:"dropped_spans"`
}

func (s *Service) handleDebugStatus(w http.ResponseWriter, r *http.Request) {
	st := debugStatus{
		Draining:      s.Draining(),
		QueueDepth:    s.QueueDepth(),
		InFlight:      s.InFlight(),
		ActiveJobs:    []debugJob{},
		PoolPanics:    s.pool.Panics(),
		DroppedEvents: s.reg.Counter("obs.dropped.events").Value(),
		DroppedSpans:  s.reg.Counter("trace.dropped.spans").Value(),
	}
	for i, label := range s.pool.WorkerStatus() {
		st.Workers = append(st.Workers, debugWorker{Worker: i, Job: label})
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		js := j.Status()
		if js.State.Terminal() {
			continue
		}
		st.ActiveJobs = append(st.ActiveJobs, debugJob{
			ID:        js.ID,
			State:     js.State,
			Circuit:   js.Circuit,
			TraceID:   js.TraceID,
			SpanStack: j.Tracer().ActiveStack(),
		})
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, metricsJSON{
			QueueDepth: s.QueueDepth(),
			InFlight:   s.InFlight(),
			Workers:    s.Workers(),
			PoolPanics: s.pool.Panics(),
			Metrics:    s.reg.Snapshot(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.PromGauge(w, "powder_service_queue_depth", float64(s.QueueDepth()))
	obs.PromGauge(w, "powder_service_jobs_inflight", float64(s.InFlight()))
	obs.PromGauge(w, "powder_service_workers", float64(s.Workers()))
	obs.PromCounter(w, "powder_pool_panics_total", float64(s.pool.Panics()))
	if st := s.cfg.Store; st != nil {
		degraded := 0.0
		if st.Degraded() {
			degraded = 1
		}
		obs.PromGauge(w, "powder_store_degraded", degraded)
	}
	s.mu.Lock()
	cached := len(s.results)
	s.mu.Unlock()
	obs.PromGauge(w, "powder_store_cache_entries", float64(cached))
	obs.WriteRuntimeMetrics(w)
	s.reg.WritePrometheus(w, "powder_")
}
