// Package service is POWDER's serving layer: a bounded worker pool, a
// job store with queueing and backpressure, and an HTTP API (the
// powderd daemon) that runs BLIF circuits through seq.OptimizeCtx with
// streaming progress, cancellation, and graceful drain.
package service

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"powder/internal/obs"
)

// errPoolClosed reports a Submit after Close; surfaced as a panic since
// it is a caller bug, not a runtime condition.
const errPoolClosed = "service: Submit on closed Pool"

// task is one queued unit of work; the label names it (conventionally
// the job ID) for live introspection at /debug/status.
type task struct {
	label string
	fn    func()
}

// Pool is a fixed-size worker pool over a bounded task queue. It is the
// shared execution substrate of the serving layer: powderd runs jobs on
// it, and powbench -parallel reuses it to fan the benchmark suite out
// over cores.
//
// A task that panics does not kill its worker: the panic is recovered
// and counted (the daemon layers its own per-job recovery on top; the
// pool-level recover is the backstop that keeps the pool draining).
type Pool struct {
	mu      sync.RWMutex // serializes sends against Close
	tasks   chan task
	closed  bool
	wg      sync.WaitGroup
	workers int
	panics  atomic.Int64
	// current[i] holds worker i's running task label ("" when idle),
	// published for WorkerStatus.
	current []atomic.Value
}

// NewPool starts a pool of the given number of workers over a queue
// holding up to queue pending tasks (queue 0 means hand-off only:
// Submit blocks until a worker is free). workers <= 0 defaults to
// runtime.GOMAXPROCS(0).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan task, queue), workers: workers, current: make([]atomic.Value, workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		p.current[i].Store("")
		go p.work(i)
	}
	return p
}

func (p *Pool) work(i int) {
	defer p.wg.Done()
	for t := range p.tasks {
		p.current[i].Store(t.label)
		p.run(t.fn)
		p.current[i].Store("")
	}
}

func (p *Pool) run(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			// The recovered panic lands in the flight recorder so
			// /debug/flight explains what the pool survived.
			obs.Flight().Record("panic", "pool-task", obs.Fields{"panic": fmt.Sprint(r)})
		}
	}()
	fn()
}

// Submit enqueues a task, blocking while the queue is full. Submitting
// on a closed pool panics (a caller bug).
func (p *Pool) Submit(fn func()) {
	// The read lock lets submitters proceed concurrently while making a
	// concurrent Close (which takes the write lock) safe: the channel is
	// only closed when no send is in flight.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		panic(errPoolClosed)
	}
	p.tasks <- task{fn: fn}
}

// SubmitLabeled enqueues a labeled task, blocking while the queue is
// full; it reports false (without panicking) when the pool is closed.
// Recovery re-enqueues use it: a restored backlog may legitimately
// exceed the queue bound, and shutdown during recovery is not a bug.
func (p *Pool) SubmitLabeled(label string, fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.tasks <- task{label: label, fn: fn}
	return true
}

// TrySubmitLabeled enqueues a task without blocking; it reports false
// when the queue is full or the pool is closed (the caller's
// backpressure signal). The label (conventionally the job ID) is what
// WorkerStatus reports while the task runs.
func (p *Pool) TrySubmitLabeled(label string, fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- task{label: label, fn: fn}:
		return true
	default:
		return false
	}
}

// QueueDepth returns the number of tasks waiting for a worker.
func (p *Pool) QueueDepth() int { return len(p.tasks) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// WorkerStatus returns each worker's running task label, "" for an idle
// worker, indexed by worker.
func (p *Pool) WorkerStatus() []string {
	out := make([]string, len(p.current))
	for i := range p.current {
		out[i], _ = p.current[i].Load().(string)
	}
	return out
}

// Panics returns how many tasks panicked (and were recovered).
func (p *Pool) Panics() int64 { return p.panics.Load() }

// Close stops intake and blocks until every queued and running task has
// finished. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
