package core

import (
	"context"
	"flag"
	"fmt"
	"maps"
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
// Result.Phases rows, the event names of the -trace-json stream, the
// span names of the trace and each span name's attribute keys, for comp
// free and constrained, at -par 1 and
// -par 2, under a cancellable and a never-cancellable context. An
// untraced run must give the same phase rows as a traced one, and the
// tracer's sink must receive every recorded span, ended or logged: its
// span events match Snapshot count for count per name. Regenerate
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
				tr := trace.New("comp", trace.Options{Obs: capture})
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
				res, err := OptimizeCtx(trace.NewContext(ctx, tr), compileBenchmark(t, "comp"), opts)
				if err != nil {
					t.Fatal(err)
				}
				phases, events, spans := phaseNames(res.Phases), []string(nil), []string(nil)
				attrs := map[string]map[string]bool{}
				if u := phaseNames(untraced.Phases); !slices.Equal(u, phases) {
					t.Errorf("delay %g par %d %s: untraced rows %v, traced rows %v", delay, par, kind, u, phases)
				}
				streamed, recorded := map[string]int{}, map[string]int{}
				for _, e := range capture.Events() {
					events = append(events, e.Name)
					if e.Name == "span" {
						streamed[e.Fields["name"].(string)]++
					}
				}
				for _, s := range tr.Snapshot() {
					recorded[s.Name]++
					spans = append(spans, s.Name)
					if attrs[s.Name] == nil {
						attrs[s.Name] = map[string]bool{}
					}
					for k := range s.Attrs {
						attrs[s.Name][k] = true
					}
				}
				if !maps.Equal(streamed, recorded) {
					t.Errorf("delay %g par %d %s: streamed spans %v, recorded %v", delay, par, kind, streamed, recorded)
				}
				fmt.Fprintf(&b, "comp delay-factor=%g par=%d %s\n", delay, par, kind)
				writeNames(&b, "phase", phases)
				writeNames(&b, "event", events)
				writeNames(&b, "span", spans)
				writeAttrs(&b, attrs)
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

// writeAttrs writes one line per span name, sorted: the name, then the
// sorted union of its spans' attribute keys.
func writeAttrs(b *strings.Builder, attrs map[string]map[string]bool) {
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		keys := make([]string, 0, len(attrs[n]))
		for k := range attrs[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "\tattrs %s\n", strings.Join(append([]string{n}, keys...), " "))
	}
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
