package sat

import (
	"context"
	"testing"
	"time"

	"powder/internal/obs/trace"
)

// TestSolveCancelledMidSearch pins the cancellation latency contract: a
// long-running search on a hard instance must return Unknown promptly
// (well under 100ms) once its context is cancelled.
func TestSolveCancelledMidSearch(t *testing.T) {
	s := New()
	pigeonhole(s, 12, 11) // exponential for resolution; runs for minutes uncancelled
	s.SetBudget(1 << 62)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SetContext(ctx)

	done := make(chan Result, 1)
	go func() { done <- s.Solve() }()
	// Let the search get properly underway before pulling the plug.
	time.Sleep(50 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case r := <-done:
		if r != Unknown {
			t.Fatalf("cancelled Solve = %v, want Unknown", r)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("Solve returned %v after cancel, want < 100ms", d)
		}
		if !s.Interrupted() {
			t.Errorf("Interrupted() = false after a cancelled solve")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Solve never returned after cancellation")
	}
}

// TestSolvePreCancelledContext pins that an already-expired context
// aborts the search essentially immediately.
func TestSolvePreCancelledContext(t *testing.T) {
	s := New()
	pigeonhole(s, 12, 11)
	s.SetBudget(1 << 62)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	start := time.Now()
	if r := s.Solve(); r != Unknown {
		t.Fatalf("Solve = %v, want Unknown", r)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("pre-cancelled Solve took %v", d)
	}
}

// TestSolveDeadlineContext exercises the deadline flavor used by the
// engine's -timeout path.
func TestSolveDeadlineContext(t *testing.T) {
	s := New()
	pigeonhole(s, 12, 11)
	s.SetBudget(1 << 62)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	s.SetContext(ctx)
	start := time.Now()
	if r := s.Solve(); r != Unknown {
		t.Fatalf("Solve = %v, want Unknown", r)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("deadline solve took %v, want prompt abort", d)
	}
}

// TestSolveBackgroundContextIsFree pins that a non-cancellable context
// is never polled and solving proceeds to a real verdict.
func TestSolveBackgroundContextIsFree(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 4)
	s.SetContext(context.Background())
	if r := s.Solve(); r != Sat {
		t.Fatalf("Solve = %v, want Sat", r)
	}
	if s.Interrupted() {
		t.Errorf("Interrupted() = true without cancellation")
	}
}

// TestSolveSpanWhateverTheContext pins that a solve opens its sat-solve
// span under the context's tracer whether or not the context can be
// cancelled: skipping the polling must not lose the trace.
func TestSolveSpanWhateverTheContext(t *testing.T) {
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"background": context.Background(), "cancellable": cancellable} {
		tr := trace.New(name, trace.Options{})
		s := New()
		pigeonhole(s, 4, 4)
		s.SetContext(trace.NewContext(ctx, tr))
		if r := s.Solve(); r != Sat {
			t.Fatalf("%s: Solve = %v, want Sat", name, r)
		}
		if spans := tr.Snapshot(); len(spans) != 1 || spans[0].Name != "sat-solve" {
			t.Errorf("%s: spans %+v, want one sat-solve span", name, spans)
		}
	}
}
