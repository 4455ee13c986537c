package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilEverythingIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Histogram("h").Observe(1)
	if r.Histogram("h").Count() != 0 || r.Histogram("h").Quantile(0.5) != 0 {
		t.Errorf("nil histogram not empty")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty")
	}

	var p *PhaseSet
	p.Add("x", time.Second)
	if p.Snapshot() != nil {
		t.Errorf("nil phase set snapshot not nil")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("subs.applied")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("subs.applied").Value(); got != workers*perWorker {
		t.Errorf("concurrent counter = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// Uniform observations 1ms..1000ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if mean := h.Mean(); mean < 0.49 || mean > 0.52 {
		t.Errorf("mean = %v, want ~0.5005", mean)
	}
	if max := h.Max(); max != 1.0 {
		t.Errorf("max = %v, want 1.0", max)
	}
	// Geometric buckets (growth 2^(1/4)) bound the estimate's relative
	// error by ~19%; allow 20%.
	checks := []struct{ q, want float64 }{{0.50, 0.5}, {0.90, 0.9}, {0.99, 0.99}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want*0.8 || got > c.want*1.25 {
			t.Errorf("q%v = %v, want within 20%% of %v", c.q, got, c.want)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1e12) // beyond the last bucket: clamps, still counted
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if q := h.Quantile(0.01); q > histMin {
		t.Errorf("low quantile = %v, want <= %v", q, histMin)
	}
	if q := h.Quantile(1.0); q <= 0 {
		t.Errorf("high quantile = %v", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 20000 {
		t.Errorf("count = %d", h.Count())
	}
	if sum := h.Sum(); sum < 19.9 || sum > 20.1 {
		t.Errorf("sum = %v, want ~20", sum)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Time: time.Now(), Name: "apply", Fields: Fields{"kind": "OS2", "gain": 0.25}})
	s.Emit(Event{Time: time.Now(), Name: "reject", Fields: Fields{"reason": "delay"}})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["event"] != "apply" || rec["kind"] != "OS2" {
		t.Errorf("bad apply record: %v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["t"].(string)); err != nil {
		t.Errorf("bad timestamp: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rec["event"] != "reject" || rec["reason"] != "delay" {
		t.Errorf("bad reject record: %v", rec)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Errorf("Multi of no live sinks should be nil")
	}
	var a, b bytes.Buffer
	sa := NewJSONLSink(&a)
	if got := Multi(nil, sa); got != Sink(sa) {
		t.Errorf("Multi of one live sink should be that sink")
	}
	Multi(sa, NewJSONLSink(&b)).Emit(Event{Name: "ev"})
	if a.Len() == 0 || b.Len() == 0 {
		t.Errorf("Multi did not fan out: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestPhaseSet(t *testing.T) {
	p := NewPhaseSet()
	p.Add("harvest", 100*time.Millisecond)
	p.Add("check", 50*time.Millisecond)
	p.Add("harvest", 100*time.Millisecond)
	ps := p.Snapshot()
	if len(ps) != 2 {
		t.Fatalf("phases = %d, want 2", len(ps))
	}
	// First-seen order is stable.
	if ps[0].Name != "harvest" || ps[1].Name != "check" {
		t.Errorf("order = %v %v", ps[0].Name, ps[1].Name)
	}
	if ps[0].Count != 2 || ps[0].Seconds < 0.19 || ps[0].Seconds > 0.21 {
		t.Errorf("harvest stat = %+v", ps[0])
	}
	if total := ps.Seconds(); total < 0.24 || total > 0.26 {
		t.Errorf("total = %v", total)
	}
	if m := ps.Map(); m["check"] < 0.049 || m["check"] > 0.051 {
		t.Errorf("map = %v", m)
	}
	if _, ok := ps.Get("check"); !ok {
		t.Errorf("Get(check) missing")
	}
	if _, ok := ps.Get("nope"); ok {
		t.Errorf("Get(nope) found")
	}
	if s := ps.String(); !strings.Contains(s, "harvest") || !strings.Contains(s, "%") {
		t.Errorf("String() = %q", s)
	}
}

func TestRegistrySnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Histogram("h").Observe(0.5)
	snap := r.Snapshot()
	if snap.Counters["a"] != 3 {
		t.Errorf("counters = %v", snap.Counters)
	}
	hs := snap.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 0.5 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "count=1") {
		t.Errorf("text = %q", out)
	}
	// Snapshot must be JSON-serializable for the metrics event.
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not marshalable: %v", err)
	}
}

// BenchmarkDisabledCounter measures the nil fast path: a counter bump
// with metrics off must stay in the nanosecond range.
func BenchmarkDisabledCounter(b *testing.B) {
	var r *Registry
	for i := 0; i < b.N; i++ {
		r.Counter("c").Inc()
	}
}
