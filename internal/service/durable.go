package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"powder/internal/obs"
	"powder/internal/store"
)

// This file is the service's durability seam: cache-key derivation,
// the result cache (an index from cache key to the completed job that
// answers it), cache-hit completion without a pool dispatch, journal
// persistence at every job transition, and startup recovery (Restore).
// The journal calls are no-ops when Config.Store is nil; the cache is
// always on, memory-only without a store and re-warmed from the journal
// with one.

// cacheKey derives the content address of a submission: the structural
// hash of the parsed core netlist (invariant to formatting, gate order,
// and internal names), the register boundary, and every option that can
// change the produced result — the effective timeout, the delay
// constraint, the substitution cap, verification, the resolved input
// probabilities, and the service-wide power-estimation configuration.
func (s *Service) cacheKey(sub *submission, opts JobOptions) string {
	h := sha256.New()
	io.WriteString(h, "powder-cache/v1\n")
	io.WriteString(h, sub.nl.StructuralHash())
	fmt.Fprintf(h, "\nports %d %d\n", sub.model.NumInputs, sub.model.NumOutputs)
	for _, l := range sub.model.Latches {
		fmt.Fprintf(h, "latch %s %s %s %d\n", l.Output, l.Kind, l.Control, l.Init)
	}
	fmt.Fprintf(h, "opts %s %g %d %t %d\n", opts.Timeout, opts.DelayLimitPct, opts.MaxSubstitutions, opts.Verify, opts.Parallelism)
	fmt.Fprintf(h, "probs %v\n", sub.inputProbs)
	if sub.activityDigest != "" {
		// The profile's content digest, not the dump bytes: a VCD and a
		// SAIF describing the same workload share one key, while any
		// change in the measured statistics misses.
		fmt.Fprintf(h, "activity %s\n", sub.activityDigest)
	}
	fmt.Fprintf(h, "power %d %d\n", s.cfg.PowerWords, s.cfg.PowerSeed)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheLookup returns the completed job that answers key, or nil,
// counting the lookup as a cache hit or miss.
func (s *Service) cacheLookup(key string) *Job {
	s.mu.Lock()
	src := s.results[key]
	s.mu.Unlock()
	if src == nil {
		s.reg.Counter("store.cache.misses").Inc()
		return nil
	}
	s.reg.Counter("store.cache.hits").Inc()
	return src
}

// cacheFill makes the completed job j the answer to duplicate
// submissions of key. A job recovered from a record without a key is
// not cached.
func (s *Service) cacheFill(key string, j *Job) {
	if key == "" {
		return
	}
	s.mu.Lock()
	s.results[key] = j
	s.mu.Unlock()
}

// jobFromCache completes a duplicate submission instantly from the job
// src that answers it: the job is born terminal, carries src's result,
// BLIF, and ledger, and never touches the worker pool. It shares them
// with src (none changes once src's result is cached) and drops the
// uploaded activity dump, which only a run would read.
func (s *Service) jobFromCache(src *Job, opts JobOptions, key string) *Job {
	now := time.Now()
	opts.ActivityDump = nil
	src.mu.Lock()
	j := &Job{
		id:          fmt.Sprintf("j%06d", s.seq.Add(1)),
		opts:        opts,
		hub:         s.newHub(),
		state:       StateCompleted,
		circuit:     src.circuit,
		submittedAt: now,
		finishedAt:  now,
		cached:      true,
		cacheKey:    key,
		result:      src.result,
		resultBLIF:  src.resultBLIF,
		ledgerJSON:  src.ledgerJSON,
	}
	src.mu.Unlock()
	// The job needs no cancellation: it is already terminal. A closed
	// context keeps ctx-consumers (none today) from leaking.
	j.ctx, j.cancel = cancelledContext()
	s.registerJob(j)
	s.reg.Counter("service.jobs.cached").Inc()
	s.finishStats(j, StateCompleted)
	j.hub.Emit(obs.Event{Time: now, Name: "job-cached", Fields: obs.Fields{
		"job": j.id, "circuit": j.circuit, "key": key,
	}})
	j.hub.Emit(obs.Event{Time: now, Name: "job-finished", Fields: obs.Fields{
		"job": j.id, "state": string(StateCompleted), "cached": true,
	}})
	j.hub.Close()
	// Persist the terminal job so the listing survives a restart; the
	// input is not stored (the job will never re-run).
	if st := s.cfg.Store; st != nil {
		ob, _ := json.Marshal(opts)
		rb, _ := json.Marshal(j.result)
		st.AppendSubmit(store.JobRecord{
			ID: j.id, State: store.StateCompleted, Circuit: j.circuit,
			CacheKey: key, Options: ob, SubmittedAt: now, FinishedAt: now,
			Result: rb, ResultBLIF: j.resultBLIF, Ledger: j.ledgerJSON,
		})
	}
	return j
}

// persistSubmit journals a freshly accepted job, input BLIF included,
// before it is handed to the pool: replay must know the job before any
// worker can finish it.
func (s *Service) persistSubmit(j *Job, body []byte) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	ob, _ := json.Marshal(j.opts)
	st.AppendSubmit(store.JobRecord{
		ID: j.id, State: store.StateQueued, Circuit: j.circuit,
		CacheKey: j.cacheKey, Options: ob, Input: body, SubmittedAt: j.submittedAt,
		Activity: j.opts.ActivityDump,
	})
}

// persistCancelPurge journals the cancellation of a job that never ran
// (still queued, or rejected by a full queue after its submit record was
// written). The record purges the job from the store so replay does not
// resurrect abandoned work.
func (s *Service) persistCancelPurge(id string) {
	if st := s.cfg.Store; st != nil {
		st.AppendCancel(id)
	}
}

// persistFinish journals a job's terminal state with its outcome.
func (s *Service) persistFinish(j *Job) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	finishedAt := j.finishedAt
	result := j.result
	resultBLIF := j.resultBLIF
	ledger := j.ledgerJSON
	errMsg := j.errMsg
	j.mu.Unlock()
	var rb json.RawMessage
	if result != nil {
		rb, _ = json.Marshal(result)
	}
	st.AppendFinish(j.id, string(state), finishedAt, rb, resultBLIF, ledger, errMsg)
}

// maybeCacheResult makes a completing job the answer to its cache key.
// Runs stopped early (deadline, cancellation, panic recovery) are
// wall-clock-dependent and are never cached; a deterministic rerun of
// the same submission would not reproduce them. It runs before the
// job's terminal state is published, so `to` carries the state the job
// is about to enter rather than j.state (still "running" here).
func (s *Service) maybeCacheResult(j *Job, to State, stoppedEarly bool) {
	if to != StateCompleted || j.opts.NoCache || stoppedEarly {
		return
	}
	j.mu.Lock()
	done := j.result != nil && j.resultBLIF != nil
	j.mu.Unlock()
	if done {
		s.cacheFill(j.cacheKey, j)
	}
}

// Restore rebuilds the job table from the configured store: terminal
// jobs are served immediately (and completed ones answer duplicate
// submissions again), jobs that were queued or running at crash time
// are re-enqueued from their persisted input under their original IDs.
// The job-ID sequence resumes past the highest recovered ID. Call once,
// after New and before serving HTTP.
func (s *Service) Restore() (requeued, served int) {
	st := s.cfg.Store
	if st == nil {
		return 0, 0
	}
	recs := st.Jobs()
	var maxSeq int64
	for _, rec := range recs {
		if n, err := strconv.ParseInt(rec.ID[1:], 10, 64); err == nil && rec.ID[0] == 'j' && n > maxSeq {
			maxSeq = n
		}
	}
	s.seq.Store(maxSeq)
	var pending []*Job
	for _, rec := range recs {
		if rec.Terminal() {
			s.restoreTerminal(rec)
			served++
			continue
		}
		if j := s.requeue(rec); j != nil {
			pending = append(pending, j)
			requeued++
		}
	}
	if len(pending) > 0 {
		// Re-enqueue in the background with blocking submits: recovered
		// backlogs larger than the queue bound must not deadlock startup,
		// and submission order is preserved.
		go func() {
			for _, j := range pending {
				j := j
				if !s.pool.SubmitLabeled(j.poolLabel(), func() { s.runJob(j) }) {
					// Pool closed mid-recovery (immediate shutdown): the
					// job stays queued in memory and in the store, and the
					// next restart re-enqueues it again.
					return
				}
				s.reg.Counter("service.jobs.requeued").Inc()
				j.hub.Emit(obs.Event{Time: time.Now(), Name: "job-requeued", Fields: obs.Fields{
					"job": j.id, "circuit": j.circuit,
				}})
			}
		}()
	}
	return requeued, served
}

// restoreTerminal rebuilds a finished job from its record: status,
// result, BLIF, and ledger are served exactly as before the restart, and
// a completed, cacheable one answers duplicate submissions again.
func (s *Service) restoreTerminal(rec store.JobRecord) {
	hub := obs.NewHub(1)
	hub.Close()
	j := &Job{
		id:          rec.ID,
		hub:         hub,
		state:       State(rec.State),
		circuit:     rec.Circuit,
		cacheKey:    rec.CacheKey,
		submittedAt: rec.SubmittedAt,
		finishedAt:  rec.FinishedAt,
		errMsg:      rec.Error,
		resultBLIF:  rec.ResultBLIF,
		ledgerJSON:  rec.Ledger,
	}
	j.ctx, j.cancel = cancelledContext()
	if len(rec.Options) > 0 {
		_ = json.Unmarshal(rec.Options, &j.opts)
	}
	if len(rec.Result) > 0 {
		var jr JobResult
		if err := json.Unmarshal(rec.Result, &jr); err == nil {
			j.result = &jr
		}
	}
	s.registerJob(j)
	if j.state == StateCompleted && j.result != nil && len(j.resultBLIF) > 0 && !j.opts.NoCache {
		s.cacheFill(j.cacheKey, j)
	}
}

// requeue rebuilds an interrupted job (queued or running at crash time)
// from its persisted input. The returned job is registered but not yet
// on the pool; Restore submits the whole batch in order. A job whose
// input no longer parses (e.g. the daemon restarted with a different
// library) finishes as failed instead of crashing recovery.
func (s *Service) requeue(rec store.JobRecord) *Job {
	var opts JobOptions
	opts.DelayLimitPct = -1
	if len(rec.Options) > 0 {
		_ = json.Unmarshal(rec.Options, &opts)
	}
	// The activity dump is journaled outside the options JSON; restore it
	// so the re-run sees the same workload.
	opts.ActivityDump = rec.Activity
	sub, err := s.parseSubmission(rec.Input, opts)
	if err != nil {
		s.restoreTerminal(store.JobRecord{
			ID: rec.ID, State: store.StateFailed, Circuit: rec.Circuit,
			CacheKey: rec.CacheKey, Options: rec.Options,
			SubmittedAt: rec.SubmittedAt, FinishedAt: time.Now(),
			Error: fmt.Sprintf("recovery: input no longer parses: %v", err),
		})
		if j, ok := s.Job(rec.ID); ok {
			s.persistFinish(j)
		}
		return nil
	}
	j := s.newJob(rec.ID, sub, opts, rec.CacheKey)
	j.submittedAt = rec.SubmittedAt
	s.registerJob(j)
	return j
}

// cancelledContext returns an already-cancelled context: restored and
// cache-served jobs are terminal at birth and must not hold a live
// child of the service root context.
func cancelledContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx, cancel
}
