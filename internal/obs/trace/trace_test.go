package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"powder/internal/obs"
)

func TestSpanIDsDeterministic(t *testing.T) {
	for run := 0; run < 2; run++ {
		tr := New("det", Options{})
		root := tr.Start("root", 0)
		a := tr.Start("a", root.ID())
		b := tr.Start("b", root.ID())
		b.End()
		a.End()
		root.End()
		spans := tr.Snapshot()
		if len(spans) != 3 {
			t.Fatalf("run %d: got %d spans, want 3", run, len(spans))
		}
		for i, want := range []SpanID{1, 2, 3} {
			if spans[i].ID != want {
				t.Errorf("run %d: span %d has ID %d, want %d", run, i, spans[i].ID, want)
			}
		}
		if spans[1].Parent != 1 || spans[2].Parent != 1 {
			t.Errorf("run %d: children parents = %d,%d, want 1,1", run, spans[1].Parent, spans[2].Parent)
		}
	}
}

func TestContextNesting(t *testing.T) {
	tr := New("nest", Options{})
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	// A sibling started from the root context still parents to root.
	_, sib := StartSpan(ctx, "sibling")
	sib.End()
	root.End()

	spans := tr.Snapshot()
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	parents := map[string]SpanID{}
	ids := map[string]SpanID{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
		ids[s.Name] = s.ID
	}
	if parents["root"] != 0 {
		t.Errorf("root parent = %d, want 0", parents["root"])
	}
	if parents["child"] != ids["root"] || parents["sibling"] != ids["root"] {
		t.Errorf("child/sibling parents = %d/%d, want %d", parents["child"], parents["sibling"], ids["root"])
	}
	if parents["grandchild"] != ids["child"] {
		t.Errorf("grandchild parent = %d, want %d", parents["grandchild"], ids["child"])
	}
	if got := len(Roots(spans)); got != 1 {
		t.Errorf("Roots = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every operation must be a no-op without a tracer, a span, or even
	// a context — the instrumented hot paths rely on it.
	var tr *Tracer
	if s := tr.Start("x", 0); s != nil {
		t.Fatalf("nil tracer Start = %v, want nil", s)
	}
	if tr.Snapshot() != nil || tr.ActiveStack() != nil || tr.Dropped() != 0 || tr.ID() != "" {
		t.Fatal("nil tracer accessors not zero")
	}
	var sp *Span
	sp.SetAttr("k", 1)
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span ID != 0")
	}
	ctx, sp2 := StartSpan(context.Background(), "noop")
	if sp2 != nil || ctx == nil {
		t.Fatal("StartSpan without tracer should return (ctx, nil)")
	}
	if FromContext(nil) != nil || SpanFromContext(nil) != nil {
		t.Fatal("nil context lookups should return nil")
	}
	if id, sid := IDs(context.Background()); id != "" || sid != 0 {
		t.Fatal("IDs without tracer should be zero")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New("idem", Options{})
	s := tr.Start("once", 0)
	s.End()
	s.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
}

func TestRingOverwritesOldestAndKeepsParents(t *testing.T) {
	ctr := obs.NewRegistry().Counter("drops")
	tr := New("ring", Options{Limit: 8, DropCounter: ctr})
	root := tr.Start("root", 0)
	// 20 leaf children flood the 8-slot ring; the oldest-ended leaves
	// are overwritten, the newest survive, and root (ending last) must
	// always be retained.
	for i := 0; i < 20; i++ {
		c := tr.Start("leaf", root.ID())
		c.SetAttr("i", i)
		c.End()
	}
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("ring kept %d spans, want 8", len(spans))
	}
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate after drops: %v", err)
	}
	foundRoot := false
	for _, s := range spans {
		if s.Name == "root" {
			foundRoot = true
		}
	}
	if !foundRoot {
		t.Fatal("root span was dropped; the recorder must overwrite oldest-ended spans")
	}
	wantDropped := int64(20 + 1 - 8)
	if tr.Dropped() != wantDropped {
		t.Errorf("Dropped = %d, want %d", tr.Dropped(), wantDropped)
	}
	if ctr.Value() != wantDropped {
		t.Errorf("drop counter = %d, want %d", ctr.Value(), wantDropped)
	}
}

func TestActiveStack(t *testing.T) {
	tr := New("live", Options{})
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	ctx, mid := StartSpan(ctx, "mid")
	_, leaf := StartSpan(ctx, "leaf")

	stack := tr.ActiveStack()
	if len(stack) != 3 {
		t.Fatalf("active stack has %d spans, want 3", len(stack))
	}
	for i, want := range []string{"root", "mid", "leaf"} {
		if stack[i].Name != want {
			t.Errorf("stack[%d] = %q, want %q", i, stack[i].Name, want)
		}
		if !stack[i].End.IsZero() {
			t.Errorf("stack[%d] has non-zero End", i)
		}
	}
	leaf.End()
	mid.End()
	root.End()
	if got := len(tr.ActiveStack()); got != 0 {
		t.Fatalf("active stack has %d spans after all ended, want 0", got)
	}
}

// TestSpansMirrorToObserver checks that ended and logged spans reach the
// tracer's sink as "span" events, and adopted ones do not.
func TestSpansMirrorToObserver(t *testing.T) {
	hub := obs.NewHub(0)
	tr := New("mirror", Options{Obs: hub})
	s := tr.Start("work", 0)
	s.SetAttr("n", 7)
	s.End()
	now := time.Now()
	tr.Log("wait", "worker-1", s.ID(), now, now.Add(time.Millisecond), map[string]any{"region": 1})
	if err := tr.Adopt(Record{ID: 1 << 40, Name: "client"}); err != nil {
		t.Fatal(err)
	}
	hub.Close()
	evs := hub.Events()
	if len(evs) != 2 || evs[0].Name != "span" || evs[1].Name != "span" {
		t.Fatalf("hub events = %v, want two span events", evs)
	}
	f := evs[0].Fields
	if f["trace"] != "mirror" || f["name"] != "work" || f["attr_n"] != 7 {
		t.Fatalf("span event fields = %v", f)
	}
	f = evs[1].Fields
	if f["name"] != "wait" || f["track"] != "worker-1" || f["parent"] != int64(s.ID()) || f["attr_region"] != 1 {
		t.Fatalf("logged span event fields = %v", f)
	}
}

func TestSamplerEvery(t *testing.T) {
	if Every(0) != nil || Every(-3) != nil {
		t.Fatal("Every(<=0) should be a nil sampler")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler sampled")
	}
	s := Every(3)
	var got []bool
	for i := 0; i < 7; i++ {
		got = append(got, s.Sample())
	}
	want := []bool{true, false, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sample()[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	all := Every(1)
	for i := 0; i < 3; i++ {
		if !all.Sample() {
			t.Fatal("Every(1) must sample everything")
		}
	}
}

func TestValidateRejectsMalformedTrees(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ok := []Record{
		{Trace: "t", ID: 1, Name: "root", Start: t0, End: t0.Add(10 * time.Millisecond)},
		{Trace: "t", ID: 2, Parent: 1, Name: "child", Start: t0.Add(time.Millisecond), End: t0.Add(2 * time.Millisecond)},
	}
	if err := Validate(ok); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := Validate(nil); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
	cases := []struct {
		name  string
		spans []Record
	}{
		{"zero id", []Record{{Trace: "t", ID: 0, Name: "x", Start: t0, End: t0}}},
		{"duplicate id", []Record{
			{Trace: "t", ID: 1, Name: "a", Start: t0, End: t0},
			{Trace: "t", ID: 1, Name: "b", Start: t0, End: t0},
		}},
		{"never ended", []Record{{Trace: "t", ID: 1, Name: "open", Start: t0}}},
		{"ends before start", []Record{{Trace: "t", ID: 1, Name: "x", Start: t0, End: t0.Add(-time.Second)}}},
		{"unknown parent", []Record{{Trace: "t", ID: 2, Parent: 9, Name: "orphan", Start: t0, End: t0}}},
		{"escapes parent", []Record{
			{Trace: "t", ID: 1, Name: "root", Start: t0, End: t0.Add(time.Millisecond)},
			{Trace: "t", ID: 2, Parent: 1, Name: "late", Start: t0, End: t0.Add(time.Hour)},
		}},
	}
	for _, c := range cases {
		if err := Validate(c.spans); err == nil {
			t.Errorf("%s: Validate accepted a malformed trace", c.name)
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	// Spans start, annotate, and end from many goroutines at once (the
	// service traces parallel workers); IDs must stay unique and the
	// recorder consistent. Run with -race.
	tr := New("conc", Options{Limit: 64})
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cctx, s := StartSpan(ctx, fmt.Sprintf("g%d", g))
				s.SetAttr("i", i)
				_, inner := StartSpan(cctx, "inner")
				inner.End()
				s.End()
				if i%50 == 0 {
					_ = tr.ActiveStack()
					_ = tr.Snapshot()
					_ = tr.Dropped()
				}
			}
		}(g)
	}
	wg.Wait()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 64 {
		t.Fatalf("ring kept %d spans, want 64", len(spans))
	}
	seen := map[SpanID]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	// 1 root + 8*200*2 children, minus the 64 retained.
	if want := int64(1+8*200*2) - 64; tr.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), want)
	}
}
