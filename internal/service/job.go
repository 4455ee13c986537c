package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"powder/internal/activity"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/seq"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued means the job is waiting for a worker.
	StateQueued State = "queued"
	// StateRunning means a worker is optimizing the circuit.
	StateRunning State = "running"
	// StateCompleted means the job finished and its result is available
	// (including runs stopped early by their deadline: those carry the
	// best netlist found plus a "deadline" stop reason).
	StateCompleted State = "completed"
	// StateFailed means the run (or its verification) errored.
	StateFailed State = "failed"
	// StateCancelled means the job was cancelled before or during the
	// run; a partially optimized result may still be available.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// JobOptions are the per-job knobs accepted by POST /v1/jobs.
type JobOptions struct {
	// Timeout is the wall-clock budget of the run; on expiry the best
	// netlist so far is the result (stop reason "deadline"). 0 uses the
	// service default.
	Timeout time.Duration `json:"timeout,omitempty"`
	// DelayLimitPct, when >= 0, constrains the optimized delay to
	// initial_delay * (1 + pct/100); 0 keeps the initial delay, -1
	// (the default) runs unconstrained.
	DelayLimitPct float64 `json:"delay_limit_pct"`
	// MaxSubstitutions caps the number of applied substitutions
	// (0 = unlimited).
	MaxSubstitutions int `json:"max_substitutions,omitempty"`
	// Verify re-proves the optimized circuit SAT-equivalent to the
	// input after the run; a refuted proof fails the job.
	Verify bool `json:"verify,omitempty"`
	// Probs optionally carries per-primary-input signal probabilities as
	// "name=p" lines (the powder -probs file format). Unknown names and
	// out-of-range values reject the submission. For sequential circuits
	// the names must be true primary inputs; latch outputs are ruled by
	// the steady-state fixpoint.
	Probs string `json:"probs,omitempty"`
	// NoCache bypasses the content-addressed result cache entirely: the
	// job is neither served from it nor published into it (the ?no-cache
	// escape hatch for forcing a fresh optimization).
	NoCache bool `json:"no_cache,omitempty"`
	// Parallelism is the engine's fanout-region worker count for this
	// job (the ?par query parameter). Submit caps it at the service's
	// pool size so one job can never oversubscribe the daemon; <= 1 runs
	// one region.
	Parallelism int `json:"parallelism,omitempty"`
	// ActivityDump carries the raw bytes of a workload activity dump
	// (VCD or SAIF, sniffed by content) uploaded as the "activity" part
	// of a multipart submission. Matched signals drive the input
	// probabilities and pin the per-input transition densities, replacing
	// the uniform assumption; mutually exclusive with Probs. Excluded
	// from the options JSON — the journal persists it as
	// store.JobRecord.Activity, and the cache key carries the profile's
	// content digest instead of the bytes.
	ActivityDump []byte `json:"-"`
	// TraceID / TraceParent carry an inbound X-Powder-Trace /
	// X-Powder-Parent header pair from a client that wants its own spans
	// stitched into the job trace: a non-empty TraceID forces tracing
	// (regardless of the sampler) under the client's trace ID, and the
	// job root span is parented under the client's span ID. Both are
	// transport-only — excluded from JSON (and hence from journal
	// records) and never part of the result-cache key, which must depend
	// only on what the optimizer computes.
	TraceID     string `json:"-"`
	TraceParent int64  `json:"-"`
}

// JobResult is the serialized outcome of a finished run.
type JobResult struct {
	InitialPower float64 `json:"initial_power"`
	FinalPower   float64 `json:"final_power"`
	ReductionPct float64 `json:"reduction_pct"`
	InitialArea  float64 `json:"initial_area"`
	FinalArea    float64 `json:"final_area"`
	InitialDelay float64 `json:"initial_delay"`
	FinalDelay   float64 `json:"final_delay"`
	Gates        int     `json:"gates"`
	Applied      int     `json:"applied"`
	// Stopped is the engine's stop reason ("completed", "deadline",
	// "cancelled", "max-substitutions", ...).
	Stopped string `json:"stopped"`
	// Verified is "equivalent", "inconclusive", or "" (not requested).
	Verified       string         `json:"verified,omitempty"`
	RuntimeSeconds float64        `json:"runtime_seconds"`
	Rejects        map[string]int `json:"rejects,omitempty"`
	// Latches is the register count of a sequential job (0 when the
	// circuit was combinational); the fixpoint fields describe the
	// steady-state probability iteration that seeded its power model.
	Latches            int     `json:"latches,omitempty"`
	FixpointIterations int     `json:"fixpoint_iterations,omitempty"`
	FixpointResidual   float64 `json:"fixpoint_residual,omitempty"`
	// Activity labels the workload activity model of a submission that
	// uploaded a dump (source digest + coverage); empty means the run
	// used the uniform assumption. ActivityMatched / ActivityInputs
	// report how many of the circuit's inputs the dump covered.
	Activity        string `json:"activity,omitempty"`
	ActivityMatched int    `json:"activity_matched,omitempty"`
	ActivityInputs  int    `json:"activity_inputs,omitempty"`
}

// Status is the JSON representation of a job returned by the API.
type Status struct {
	ID          string        `json:"id"`
	State       State         `json:"state"`
	Circuit     string        `json:"circuit"`
	Options     JobOptions    `json:"options"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Progress    core.Progress `json:"progress"`
	Result      *JobResult    `json:"result,omitempty"`
	Error       string        `json:"error,omitempty"`
	// TraceID is set on traced jobs (Config.TraceSample); the span tree
	// is served at GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
	// Cached reports that the job was answered from the content-
	// addressed result cache without running the optimizer.
	Cached bool `json:"cached,omitempty"`
}

// Job is one queued or running optimization. All mutable fields are
// guarded by mu; the input netlist is owned by the worker that runs the
// job and must not be touched elsewhere after submission. The run-only
// fields (netlists, probabilities, activity binding and dump) are
// dropped when the job turns terminal.
type Job struct {
	id   string
	opts JobOptions
	hub  *obs.Hub

	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	state       State
	circuit     string
	cacheKey    string // content address of the submission
	cached      bool   // served from the result cache, never ran
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	progress    core.Progress
	result      *JobResult
	errMsg      string
	cancelAsked bool

	nl         *netlist.Netlist // input circuit, consumed by the worker
	circ       *seq.Circuit     // the same circuit with its register cut
	inputProbs []float64        // resolved JobOptions.Probs, or nil
	// binding and activityLabel carry a parsed activity upload; the raw
	// dump bytes ride JobOptions.ActivityDump for journal persistence.
	binding       *activity.Binding
	activityLabel string
	original      *netlist.Netlist // pre-optimization clone (verify only)
	resultBLIF    []byte
	// ledgerJSON is the encoded run ledger, shared with the journal
	// record and the cache hits that carry it.
	ledgerJSON json.RawMessage

	// tracer and the submit-time spans are set once in Submit on sampled
	// jobs and immutable afterwards (the spans themselves are
	// concurrency-safe); tctx carries tracer + root span for the worker.
	tracer    *trace.Tracer
	jobSpan   *trace.Span
	queueSpan *trace.Span
	tctx      context.Context
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// poolLabel is the worker-status label shown at /debug/status: the job id
// plus the engine-worker breadth for parallel jobs, so one pool slot that
// is fanning out onto N region workers reads as exactly that.
func (j *Job) poolLabel() string {
	if j.opts.Parallelism > 1 {
		return fmt.Sprintf("%s par=%d", j.id, j.opts.Parallelism)
	}
	return j.id
}

// Hub returns the job's event stream.
func (j *Job) Hub() *obs.Hub { return j.hub }

// Tracer returns the job's span tracer (nil on an unsampled job).
func (j *Job) Tracer() *trace.Tracer { return j.tracer }

// TraceID returns the job's trace identifier ("" on an unsampled job).
func (j *Job) TraceID() string { return j.tracer.ID() }

// traceCtx returns the context the worker should run under: the span
// context of a traced job, the plain cancellation context otherwise.
func (j *Job) traceCtx() context.Context {
	if j.tctx != nil {
		return j.tctx
	}
	return j.ctx
}

// Status snapshots the job for serialization.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Circuit:     j.circuit,
		Options:     j.opts,
		SubmittedAt: j.submittedAt,
		Progress:    j.progress,
		Result:      j.result,
		Error:       j.errMsg,
		TraceID:     j.tracer.ID(),
		Cached:      j.cached,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

// transition moves the job from one state to another (a non-terminal
// target is running); it reports false (and does nothing) when the job
// is not in the expected state.
func (j *Job) transition(from, to State) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	if to.Terminal() {
		j.finishLocked(to)
	} else {
		j.state = to
		j.startedAt = time.Now()
	}
	return true
}

// finishLocked moves the job to its terminal state and drops what only
// the run needed, so a finished job keeps just what it serves. Callers
// hold mu.
func (j *Job) finishLocked(to State) {
	j.state = to
	j.finishedAt = time.Now()
	j.nl, j.circ, j.original = nil, nil, nil
	j.inputProbs, j.binding = nil, nil
	j.opts.ActivityDump = nil
}

// setProgress publishes a live run snapshot (the core.Options.Progress
// hook target).
func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// requestCancel flags the job for cancellation and cancels its context.
// It reports whether the job was still cancellable (not yet terminal).
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	terminal := j.state.Terminal()
	if !terminal {
		j.cancelAsked = true
	}
	j.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	return !terminal
}

// cancelRequested reports whether DELETE asked for cancellation.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsked
}

// ResultBLIF returns the optimized netlist in BLIF form, or nil while
// the job has not produced one.
func (j *Job) ResultBLIF() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resultBLIF
}

// Ledger returns the JSON-encoded run ledger (an obs.LedgerSummary), or
// nil while the job has not produced one. The bytes are immutable once
// published.
func (j *Job) Ledger() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ledgerJSON
}
