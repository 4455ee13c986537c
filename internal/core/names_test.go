package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/transform"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestInstrumentationNames pins the names a traced run exposes: the
// Result.Phases rows, the event names of the -trace-json stream, and the
// span names of the trace, for comp free and constrained, at -par 1 and
// -par 2, under a cancellable and a never-cancellable context. An
// untraced run must give the same phase rows as a traced one. Regenerate
// testdata/instrumentation_names.txt with go test -run
// TestInstrumentationNames -update.
func TestInstrumentationNames(t *testing.T) {
	var b strings.Builder
	for _, delay := range []float64{0, 1} {
		for _, par := range []int{1, 2} {
			for _, cancellable := range []bool{true, false} {
				ctx, kind := context.Background(), "background"
				if cancellable {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					defer cancel()
					kind = "cancellable"
				}
				capture := &captureSink{}
				o := obs.New(capture, obs.NewRegistry())
				tr := trace.New("comp", trace.Options{Obs: o})
				opts := Options{
					DelayFactor: delay,
					Parallelism: par,
					Power:       powerOptsSmall(),
					Transform:   transform.Config{AllowInverted: true},
				}
				untraced, err := OptimizeCtx(ctx, compileBenchmark(t, "comp"), opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Obs = o
				res, err := OptimizeCtx(trace.NewContext(ctx, tr), compileBenchmark(t, "comp"), opts)
				if err != nil {
					t.Fatal(err)
				}
				phases, events, spans := phaseNames(res.Phases), []string(nil), []string(nil)
				if u := phaseNames(untraced.Phases); !slices.Equal(u, phases) {
					t.Errorf("delay %g par %d %s: untraced rows %v, traced rows %v", delay, par, kind, u, phases)
				}
				for _, e := range capture.Events() {
					events = append(events, e.Name)
				}
				for _, s := range tr.Snapshot() {
					spans = append(spans, s.Name)
				}
				fmt.Fprintf(&b, "comp delay-factor=%g par=%d %s\n", delay, par, kind)
				writeNames(&b, "phase", phases)
				writeNames(&b, "event", events)
				writeNames(&b, "span", spans)
			}
		}
	}
	const golden = "testdata/instrumentation_names.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("instrumentation names differ from %s (rerun with -update to rewrite it):\n%s", golden, got)
	}
}

// phaseNames returns the row names, sorted.
func phaseNames(ps obs.Phases) []string {
	var names []string
	for _, p := range ps {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// writeNames writes the distinct names, sorted, one per line.
func writeNames(b *strings.Builder, label string, names []string) {
	sort.Strings(names)
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			fmt.Fprintf(b, "\t%s %s\n", label, n)
		}
	}
}
