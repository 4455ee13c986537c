package service

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEverySubmittedTask(t *testing.T) {
	p := NewPool(4, 8)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Close()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestPoolTrySubmitBackpressure(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-release }) // occupies the worker
	<-started
	if !p.TrySubmitLabeled("", func() {}) {
		t.Fatal("queue slot should accept one task")
	}
	var overflow func() = func() {}
	if p.TrySubmitLabeled("", overflow) {
		t.Fatal("full queue accepted a task")
	}
	if p.QueueDepth() != 1 {
		t.Fatalf("QueueDepth = %d, want 1", p.QueueDepth())
	}
	close(release)
	p.Close()
	if !p.closedForTest() {
		t.Fatal("pool should be closed")
	}
	if p.TrySubmitLabeled("", func() {}) {
		t.Fatal("closed pool accepted a task")
	}
}

func TestPoolRecoverPanicKeepsWorkerAlive(t *testing.T) {
	p := NewPool(1, 4)
	var after atomic.Bool
	p.Submit(func() { panic("boom") })
	p.Submit(func() { after.Store(true) })
	p.Close()
	if !after.Load() {
		t.Fatal("task after a panicking task did not run")
	}
	if p.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", p.Panics())
	}
}

func TestPoolCloseIdempotentAndConcurrentWithTrySubmit(t *testing.T) {
	p := NewPool(2, 2)
	var wg sync.WaitGroup
	stopSubmitting := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSubmitting:
				return
			default:
				p.TrySubmitLabeled("", func() {})
			}
		}
	}()
	p.Close()
	p.Close()
	close(stopSubmitting)
	wg.Wait()
}

// closedForTest exposes the close flag without widening the API.
func (p *Pool) closedForTest() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}
