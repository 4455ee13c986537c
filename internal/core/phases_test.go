package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"powder/internal/obs/trace"
	"powder/internal/transform"
)

// selfTimesOf recomputes a run's phase table from a trace: every span in
// the subtree of the optimize span root adds its duration minus its
// direct children's, floored at 0, to the row of its name. Retroactively
// logged spans (barrier-wait) are markers on a worker lane, not timed
// work, and stay out of the table.
func selfTimesOf(recs []trace.Record, root trace.SpanID) (map[string]time.Duration, map[string]int64) {
	kids := map[trace.SpanID][]trace.Record{}
	for _, r := range recs {
		if r.Name != "barrier-wait" {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	self, count := map[string]time.Duration{}, map[string]int64{}
	var walk func(r trace.Record)
	walk = func(r trace.Record) {
		d := r.End.Sub(r.Start)
		for _, k := range kids[r.ID] {
			d -= k.End.Sub(k.Start)
			walk(k)
		}
		self[r.Name] += max(d, 0)
		count[r.Name]++
	}
	for _, r := range recs {
		if r.ID == root {
			walk(r)
		}
	}
	return self, count
}

// checkSelfTimes asserts that res.Phases is exactly the self-time table
// recomputed from the run's own subtree of the trace.
func checkSelfTimes(t *testing.T, label string, res *Result, recs []trace.Record, root trace.SpanID) {
	t.Helper()
	self, count := selfTimesOf(recs, root)
	if len(res.Phases) != len(self) {
		t.Errorf("%s: %d phase rows, the trace has %d span names: %v", label, len(res.Phases), len(self), res.Phases)
	}
	for _, p := range res.Phases {
		want, ok := self[p.Name]
		if !ok {
			t.Errorf("%s: phase %q has no span in the run's subtree", label, p.Name)
			continue
		}
		if math.Abs(p.Seconds-want.Seconds()) > 1e-9 || p.Count != count[p.Name] {
			t.Errorf("%s: phase %q = %.9fs over %d spans, trace self time %.9fs over %d", label, p.Name, p.Seconds, p.Count, want.Seconds(), count[p.Name])
		}
	}
}

// TestPhasesAreSpanSelfTimes pins Result.Phases as the self-time table of
// the run's span subtree, at one region and under concurrent workers.
func TestPhasesAreSpanSelfTimes(t *testing.T) {
	for _, par := range []int{1, 2} {
		tr := trace.New("comp", trace.Options{})
		res, err := OptimizeCtx(trace.NewContext(context.Background(), tr), compileBenchmark(t, "comp"), Options{
			DelayFactor: 1,
			Parallelism: par,
			Power:       powerOptsSmall(),
			Transform:   transform.Config{AllowInverted: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs := tr.Snapshot()
		if recs[0].Name != "optimize" {
			t.Fatalf("par %d: first span %q, want the optimize root", par, recs[0].Name)
		}
		checkSelfTimes(t, "comp", res, recs, recs[0].ID)
	}
}

// TestPhasesSumToRuntime pins that at one region the phase rows account
// for the whole run, traced or not.
func TestPhasesSumToRuntime(t *testing.T) {
	for _, traced := range []bool{false, true} {
		ctx := context.Background()
		if traced {
			ctx = trace.NewContext(ctx, trace.New("comp", trace.Options{}))
		}
		res, err := OptimizeCtx(ctx, compileBenchmark(t, "comp"), Options{
			Power:     powerOptsSmall(),
			Transform: transform.Config{AllowInverted: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, rt := res.Phases.Seconds(), res.Runtime.Seconds()
		if math.Abs(sum-rt) > 0.01*rt {
			t.Errorf("traced=%v: phase rows sum to %.6fs, runtime %.6fs (off by %.2f%%)", traced, sum, rt, 100*(sum-rt)/rt)
		}
	}
}

// TestConcurrentRunsKeepSeparateTables runs two optimizations at once on
// one tracer: each run's phases come from its own subtree only.
func TestConcurrentRunsKeepSeparateTables(t *testing.T) {
	tr := trace.New("shared", trace.Options{})
	ctx := trace.NewContext(context.Background(), tr)
	names := []string{"comp", "clip"}
	results := make([]*Result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		nl := compileBenchmark(t, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := OptimizeCtx(ctx, nl, Options{Power: powerOptsSmall(), Parallelism: 2})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	recs := tr.Snapshot()
	for i, name := range names {
		var root trace.SpanID
		for _, r := range recs {
			if r.Name == "optimize" && r.Attrs["circuit"] == name {
				root = r.ID
			}
		}
		if root == 0 || results[i] == nil {
			t.Fatalf("%s: no optimize span or no result", name)
		}
		checkSelfTimes(t, name, results[i], recs, root)
	}
}
