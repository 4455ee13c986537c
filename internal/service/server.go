package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/seq"
	"powder/internal/store"
	"powder/internal/transform"
)

// Config sizes and wires one Service.
type Config struct {
	// Workers is the optimization worker-pool size (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue rejects submissions with 429 (<= 0: default 64).
	QueueDepth int
	// Library resolves BLIF cells (nil: the built-in lib2).
	Library *cellib.Library
	// MaxBodyBytes bounds the accepted BLIF size (<= 0: 16 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-job wall-clock budget applied when a
	// submission does not set one (0: unlimited).
	DefaultTimeout time.Duration
	// Registry receives the service metrics and, folded from each
	// finished job's result, the engine's (nil: a fresh registry,
	// exposed at /metrics).
	Registry *obs.Registry
	// PowerWords / PowerSeed configure probability estimation for every
	// job (<= 0: engine defaults of 64 words, seed 1).
	PowerWords int
	PowerSeed  int64
	// TraceSample enables per-job span tracing for one job in every
	// TraceSample submissions (1 = every job, 0 = off, the default for
	// an always-on daemon). A traced job carries a trace ID in its
	// status and serves its span tree at GET /v1/jobs/{id}/trace.
	TraceSample int64
	// TraceLimit bounds each traced job's recorded spans
	// (<= 0: trace.DefaultLimit).
	TraceLimit int
	// Store, when non-nil, persists every job transition to a write-
	// ahead journal so jobs survive daemon restarts (see Restore).
	Store *store.Store
}

// Service owns the job store, the worker pool, and the HTTP handlers of
// one powderd instance.
type Service struct {
	cfg     Config
	pool    *Pool
	reg     *obs.Registry
	sampler *trace.Sampler

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	// results is the result cache: each cache key maps to the completed
	// job whose result answers a duplicate submission.
	results map[string]*Job
	seq     atomic.Int64

	draining atomic.Bool
	inflight atomic.Int64

	// testBeforeRun, when non-nil, is invoked by a worker after the job
	// transitions to running and before optimization starts. Tests use
	// it to hold workers in place deterministically.
	testBeforeRun func(ctx context.Context, j *Job)
}

// New starts a Service: its workers are live once New returns.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Library == nil {
		cfg.Library = cellib.Lib2()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		reg:        cfg.Registry,
		sampler:    trace.Every(cfg.TraceSample),
		jobs:       make(map[string]*Job),
		results:    make(map[string]*Job),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	s.pool = NewPool(cfg.Workers, cfg.QueueDepth)
	return s
}

// Registry returns the service metrics registry.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.pool.Workers() }

// submission is a parsed, validated job input ready to become a Job.
type submission struct {
	model      *blif.Model
	circ       *seq.Circuit
	nl         *netlist.Netlist
	inputProbs []float64
	// binding, activityDigest, and activityLabel describe a workload
	// activity upload bound onto the circuit's core inputs; all empty
	// without one.
	binding        *activity.Binding
	activityDigest string
	activityLabel  string
}

// parseSubmission parses and validates a BLIF body plus its options
// into a submission; every failure is a *ParseError (HTTP 400).
func (s *Service) parseSubmission(body []byte, opts JobOptions) (*submission, error) {
	model, err := blif.ReadModel(bytes.NewReader(body), s.cfg.Library)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	circ, err := seq.FromModel(model)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	// Bad probability lists reject the submission up front, with the
	// offending line, rather than failing the job asynchronously.
	var inputProbs []float64
	if opts.Probs != "" {
		entries, perr := seq.ParseProbs(strings.NewReader(opts.Probs))
		if perr != nil {
			return nil, &ParseError{Err: perr}
		}
		inputProbs, perr = seq.ResolveProbs(entries, circ)
		if perr != nil {
			return nil, &ParseError{Err: perr}
		}
	}
	sub := &submission{model: model, circ: circ, nl: model.Netlist, inputProbs: inputProbs}
	if len(opts.ActivityDump) > 0 {
		if opts.Probs != "" {
			return nil, &ParseError{Err: errors.New("use either probs or an activity upload, not both (the dump already carries input probabilities)")}
		}
		prof, perr := activity.Read(bytes.NewReader(opts.ActivityDump))
		if perr != nil {
			return nil, &ParseError{Err: fmt.Errorf("activity: %v", perr)}
		}
		if sub.binding, sub.activityLabel, perr = circ.BindActivity(prof, prof.Source); perr != nil {
			return nil, &ParseError{Err: perr}
		}
		sub.activityDigest = prof.Digest()
	}
	return sub, nil
}

// newHub builds the event hub of a submitted job. It carries the job's
// lifecycle events and, for a traced job, its span ends. Slow event
// consumers must never stall a worker: the hub drops instead, and the
// drops surface at /metrics. Every event also mirrors into the process
// flight recorder for postmortems.
func (s *Service) newHub() *obs.Hub {
	hub := obs.NewHub(0)
	hub.SetDropCounter(s.reg.Counter("obs.dropped.events"))
	hub.SetMirror(obs.Flight())
	return hub
}

// newJob builds a queued Job (with event hub and optional span tracer)
// from a parsed submission; the caller registers and enqueues it.
func (s *Service) newJob(id string, sub *submission, opts JobOptions, cacheKey string) *Job {
	ctx, cancel := context.WithCancel(s.rootCtx)
	j := &Job{
		id:            id,
		opts:          opts,
		hub:           s.newHub(),
		ctx:           ctx,
		cancel:        cancel,
		state:         StateQueued,
		circuit:       sub.nl.Name,
		cacheKey:      cacheKey,
		submittedAt:   time.Now(),
		nl:            sub.nl,
		circ:          sub.circ,
		inputProbs:    sub.inputProbs,
		binding:       sub.binding,
		activityLabel: sub.activityLabel,
	}
	if opts.Verify {
		j.original = sub.nl.Clone()
	}
	if forced := opts.TraceID != ""; forced || s.sampler.Sample() {
		// The tracer mirrors completed spans onto the job's event stream
		// and bounds its recorder; drops surface at /metrics. An untraced
		// job's stream holds only its job-* lifecycle events. A client
		// that sent X-Powder-Trace forces tracing under its own trace ID
		// so the stitched forest reads client → queue → run → engine.
		traceID := j.id
		if forced {
			traceID = opts.TraceID
		}
		j.tracer = trace.New(traceID, trace.Options{
			Limit:       s.cfg.TraceLimit,
			DropCounter: s.reg.Counter("trace.dropped.spans"),
			Obs:         j.hub,
		})
		tctx := trace.NewContext(ctx, j.tracer)
		// The job root parents under the client's in-flight span (0, the
		// ordinary case, keeps it a root).
		j.jobSpan = j.tracer.Start("job", trace.SpanID(opts.TraceParent))
		j.jobSpan.SetAttr("circuit", j.circuit)
		tctx = trace.ContextWithSpan(tctx, j.jobSpan)
		// The queue span measures submission → worker pickup; runJob ends
		// it when the job leaves the queue.
		_, j.queueSpan = trace.StartSpan(tctx, "queue")
		j.tctx = tctx
	}
	return j
}

// registerJob inserts a job into the table in submission order.
func (s *Service) registerJob(j *Job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

// unregisterJob removes a job rejected before it ever ran.
func (s *Service) unregisterJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	// Concurrent submissions may have appended after us; remove by ID.
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Submit parses a BLIF circuit and enqueues it as a job — or, when a
// completed job already answers a structurally identical circuit under
// the same options, returns a job that is complete on arrival without
// touching the worker pool. It returns ErrDraining
// while the service drains and ErrQueueFull when the bounded queue has
// no room (the HTTP layer maps these to 503 and 429).
func (s *Service) Submit(body []byte, opts JobOptions) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	sub, err := s.parseSubmission(body, opts)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = s.cfg.DefaultTimeout
	}
	// Cap the engine parallelism at the pool size before the cache key is
	// derived, so the effective value is what gets cached and displayed.
	if opts.Parallelism > s.pool.Workers() {
		opts.Parallelism = s.pool.Workers()
	}
	key := s.cacheKey(sub, opts)
	if !opts.NoCache {
		if src := s.cacheLookup(key); src != nil {
			s.reg.Counter("service.jobs.submitted").Inc()
			return s.jobFromCache(src, opts, key), nil
		}
	}

	j := s.newJob(fmt.Sprintf("j%06d", s.seq.Add(1)), sub, opts, key)
	// The submit record is journaled before the job is visible or the
	// pool sees it: no DELETE can race the record, and a crash at any
	// later point replays the job as at-least queued.
	s.persistSubmit(j, body)
	s.registerJob(j)

	if !s.pool.TrySubmitLabeled(j.poolLabel(), func() { s.runJob(j) }) {
		s.unregisterJob(j.id)
		s.persistCancelPurge(j.id)
		j.cancel()
		s.reg.Counter("service.jobs.rejected").Inc()
		return nil, ErrQueueFull
	}
	s.reg.Counter("service.jobs.submitted").Inc()
	j.hub.Emit(obs.Event{Time: time.Now(), Name: "job-queued", Fields: obs.Fields{
		"job":     j.id,
		"circuit": j.circuit,
	}})
	return j, nil
}

// Job returns the job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobsSnapshot returns every job's status in submission order.
func (s *Service) JobsSnapshot() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels the job by ID: a queued job finishes immediately as
// cancelled, a running one is interrupted through its context. The
// second return is false when the job does not exist; the first is
// false when it had already finished.
func (s *Service) Cancel(id string) (cancelled, found bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	if !j.requestCancel() {
		return false, true
	}
	// A job still queued finishes right here; the worker skips it when
	// it eventually pops. A running job is finished by its worker.
	if j.transition(StateQueued, StateCancelled) {
		// The job never ran: purge its journal entry instead of writing a
		// terminal record, so a restart does not resurrect abandoned work.
		s.persistCancelPurge(j.id)
		s.finishStats(j, StateCancelled)
		j.hub.Emit(obs.Event{Time: time.Now(), Name: "job-finished", Fields: obs.Fields{
			"job": j.id, "state": string(StateCancelled), "queued_only": true,
		}})
		j.hub.Close()
	}
	return true, true
}

// Draining reports whether the service is refusing new submissions.
func (s *Service) Draining() bool { return s.draining.Load() }

// BeginDrain makes every further Submit fail with ErrDraining; queued
// and running jobs keep going.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Drain gracefully shuts the service down: new submissions are
// rejected, queued and in-flight jobs run to completion. If ctx expires
// first, the remaining jobs are cancelled (they finish as "cancelled"
// with their best result so far) and Drain returns ctx's error after
// they unwind.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel() // interrupt in-flight optimizations
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: in-flight jobs are interrupted and the
// pool is drained.
func (s *Service) Close() {
	s.BeginDrain()
	s.rootCancel()
	s.pool.Close()
}

// runJob is the worker body: it executes one job end to end with panic
// isolation (a panic fails the job, never the worker).
func (s *Service) runJob(j *Job) {
	if j.cancelRequested() || j.ctx.Err() != nil {
		// Cancelled while queued; Cancel usually finishes the job, this
		// covers the root-context (forced shutdown) path.
		if j.transition(StateQueued, StateCancelled) {
			s.finishJob(j, StateCancelled, nil, nil)
		}
		return
	}
	if !j.transition(StateQueued, StateRunning) {
		return // finished elsewhere (queued cancellation won the race)
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	j.queueSpan.End()
	// The run span brackets the worker's part of the job; the engine's
	// "optimize" span nests under it through the context.
	rctx, runSpan := trace.StartSpan(j.traceCtx(), "run")
	j.hub.Emit(obs.Event{Time: time.Now(), Name: "job-started", Fields: obs.Fields{
		"job": j.id, "circuit": j.circuit,
	}})

	defer func() {
		if r := recover(); r != nil {
			runSpan.SetAttr("panic", fmt.Sprint(r))
			runSpan.End()
			s.finishJob(j, StateFailed, nil, fmt.Errorf("panic: %v", r))
		}
	}()

	if s.testBeforeRun != nil {
		s.testBeforeRun(j.ctx, j)
	}

	res, err := s.optimize(rctx, j)
	to := StateCompleted
	switch {
	case err != nil:
		to = StateFailed
	case res.Stopped == core.StopCancelled:
		to = StateCancelled
	}
	runSpan.SetAttr("state", string(to))
	runSpan.End()
	// Index the result before the terminal state becomes visible: a
	// client that polls the job to completion and immediately resubmits
	// the same circuit must hit it, not race past the fill.
	if res != nil {
		s.maybeCacheResult(j, to, res.StoppedEarly())
	}
	s.finishJob(j, to, res, err)
}

// optimize runs the engine and, when requested, the SAT equivalence
// re-verification; it also renders the optimized netlist to BLIF. ctx
// carries the job's cancellation and, for traced jobs, its span context.
func (s *Service) optimize(ctx context.Context, j *Job) (*core.Result, error) {
	opts := core.Options{
		Timeout:          j.opts.Timeout,
		MaxSubstitutions: j.opts.MaxSubstitutions,
		Parallelism:      j.opts.Parallelism,
		Power:            power.Options{Words: s.cfg.PowerWords, Seed: s.cfg.PowerSeed},
		Transform:        transform.Config{AllowInverted: true},
		Activity:         j.activityLabel,
		Progress:         j.setProgress,
	}
	if j.opts.DelayLimitPct >= 0 {
		opts.DelayFactor = 1 + j.opts.DelayLimitPct/100
	}

	// seq picks the engine entry by latch count: a sequential job runs at
	// the register cut, under the state probabilities of its fixpoint.
	sres, err := seq.OptimizeCtx(ctx, j.circ, seq.Options{
		Core:     opts,
		Fixpoint: seq.FixpointOptions{InputProbs: j.inputProbs},
		Activity: j.binding,
	})
	seq.RecordMetrics(s.reg, sres, err)
	var res *core.Result
	if sres != nil {
		res = sres.Core
	}
	if res != nil && res.Ledger != nil {
		// Publish the ledger even for failed or cancelled runs: partial
		// provenance is exactly what a post-mortem needs. A ledger that
		// cannot be encoded (a non-finite gain) is served as absent.
		lb, _ := json.Marshal(res.Ledger)
		j.mu.Lock()
		j.ledgerJSON = lb
		j.mu.Unlock()
	}
	if err != nil {
		return res, err
	}

	verified := ""
	if j.opts.Verify && res.Stopped != core.StopCancelled {
		// Verification is not cancellable by the job context on purpose:
		// it certifies the result we are about to publish.
		eq, eqErr := atpg.Equivalent(j.original, j.nl, 0)
		if eqErr != nil {
			return res, fmt.Errorf("verify: %v", eqErr)
		}
		switch eq.Verdict {
		case atpg.Permissible:
			verified = "equivalent"
		case atpg.NotPermissible:
			return res, fmt.Errorf("verify: optimized circuit differs on output %q", eq.DifferingOutput)
		default:
			verified = "inconclusive"
		}
	}

	var buf bytes.Buffer
	if werr := blif.WriteModel(&buf, j.circ.Model); werr != nil {
		return res, fmt.Errorf("render result: %v", werr)
	}
	jr := resultJSON(res, verified)
	if fp := sres.Fixpoint; fp != nil {
		jr.Latches = j.circ.NumLatches()
		jr.FixpointIterations = fp.Iterations
		jr.FixpointResidual = fp.Residual
	}
	if j.binding != nil {
		jr.Activity = j.activityLabel
		jr.ActivityMatched = j.binding.MatchedCount
		jr.ActivityInputs = len(j.binding.Names)
	}
	j.mu.Lock()
	j.resultBLIF = buf.Bytes()
	j.result = jr
	j.mu.Unlock()
	return res, nil
}

// finishJob moves a running job to its terminal state and publishes the
// closing event.
func (s *Service) finishJob(j *Job, to State, res *core.Result, err error) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.finishLocked(to)
		if err != nil {
			j.errMsg = err.Error()
		}
		if res != nil && j.result == nil {
			j.result = resultJSON(res, "")
		}
	}
	j.mu.Unlock()
	s.persistFinish(j)
	s.finishStats(j, to)
	// Close out the trace before the hub: the queue span is still open
	// when a queued job is cancelled, and the job root span always is.
	j.queueSpan.End()
	if j.jobSpan != nil {
		j.jobSpan.SetAttr("state", string(to))
		j.jobSpan.End()
	}
	f := obs.Fields{"job": j.id, "state": string(to)}
	if res != nil {
		f["applied"] = res.Applied
		f["stopped"] = string(res.Stopped)
		f["reduction_pct"] = res.PowerReductionPct()
	}
	if err != nil {
		f["error"] = err.Error()
	}
	j.hub.Emit(obs.Event{Time: time.Now(), Name: "job-finished", Fields: f})
	j.hub.Close()
}

// finishStats updates the terminal-state counters and latency
// histogram.
func (s *Service) finishStats(j *Job, to State) {
	s.reg.Counter("service.jobs." + string(to)).Inc()
	st := j.Status()
	if st.FinishedAt != nil {
		s.reg.Histogram("service.job.seconds").Observe(st.FinishedAt.Sub(st.SubmittedAt).Seconds())
	}
}

// resultJSON converts an engine result into the API shape.
func resultJSON(res *core.Result, verified string) *JobResult {
	return &JobResult{
		InitialPower:   res.Initial.Power,
		FinalPower:     res.Final.Power,
		ReductionPct:   res.PowerReductionPct(),
		InitialArea:    res.Initial.Area,
		FinalArea:      res.Final.Area,
		InitialDelay:   res.InitialDelay,
		FinalDelay:     res.FinalDelay,
		Gates:          res.Final.Gates,
		Applied:        res.Applied,
		Stopped:        string(res.Stopped),
		Verified:       verified,
		RuntimeSeconds: res.Runtime.Seconds(),
		Rejects:        res.Rejects,
	}
}

// Sentinel errors of Submit, mapped to HTTP status codes by the
// handlers.
var (
	// ErrQueueFull reports a full job queue (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports a draining service (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// ParseError wraps a BLIF parse failure (HTTP 400).
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Service) QueueDepth() int { return s.pool.QueueDepth() }

// InFlight returns the number of jobs currently being optimized.
func (s *Service) InFlight() int64 { return s.inflight.Load() }
