// Package obs is the observability layer of the POWDER pipeline: a
// structured event sink (JSON Lines), an atomic metrics registry of
// counters and histograms, named phase timers, and pprof profiling
// helpers.
//
// Everything is stdlib-only and nil-safe: every method works on a nil
// receiver as a cheap no-op, so instrumented code pays ~nothing when
// observability is disabled. Hot paths should additionally guard event
// construction with Observer.Tracing() so field maps are never built
// when no sink is attached.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Fields carries the structured payload of one event.
type Fields map[string]any

// Event is one structured trace record.
type Event struct {
	// Time is the emission timestamp.
	Time time.Time
	// Name identifies the event kind ("harvest", "check", "apply",
	// "reject", "progress", "metrics", ...).
	Name string
	// Fields holds the event payload.
	Fields Fields
}

// Sink receives structured events. Implementations must be safe for
// concurrent use.
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a plain function into a Sink.
type SinkFunc func(Event)

// Emit calls the function.
func (f SinkFunc) Emit(e Event) { f(e) }

// Observer bundles an event sink and a metrics registry; either (or the
// Observer itself) may be nil.
type Observer struct {
	sink    Sink
	metrics *Registry
}

// New returns an observer over the sink and registry; it returns nil when
// both are nil, preserving the disabled fast path.
func New(sink Sink, metrics *Registry) *Observer {
	if sink == nil && metrics == nil {
		return nil
	}
	return &Observer{sink: sink, metrics: metrics}
}

// Tracing reports whether an event sink is attached. Call this before
// building a Fields map on a hot path.
func (o *Observer) Tracing() bool { return o != nil && o.sink != nil }

// Emit sends one event to the sink; a no-op without one.
func (o *Observer) Emit(name string, fields Fields) {
	if o == nil || o.sink == nil {
		return
	}
	o.sink.Emit(Event{Time: time.Now(), Name: name, Fields: fields})
}

// Metrics returns the attached registry, or nil.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Counter returns the named counter of the attached registry (nil without
// one; a nil Counter is a no-op).
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.metrics.Counter(name)
}

// Histogram returns the named histogram of the attached registry (nil
// without one; a nil Histogram is a no-op).
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.metrics.Histogram(name)
}

// Tee returns an observer that forwards events to both observers' sinks
// and exposes the first non-nil registry. Either argument may be nil.
func Tee(a, b *Observer) *Observer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	reg := a.metrics
	if reg == nil {
		reg = b.metrics
	}
	return New(Multi(a.sink, b.sink), reg)
}

// Multi fans one event out to every non-nil sink; it returns nil when
// none remain.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// JSONLSink writes one JSON object per event to an io.Writer (the
// JSON Lines trace format).
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink encoding events as JSON Lines on w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// timeFormat is the timestamp layout of the serialized event formats.
const timeFormat = time.RFC3339Nano

// Emit writes the event as one JSON line: the reserved keys "t" (RFC3339
// nanosecond timestamp) and "event" (name) plus the event fields.
func (s *JSONLSink) Emit(e Event) {
	rec := EventRecord(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Encoding errors are swallowed: tracing must never fail the run.
	_ = s.enc.Encode(rec)
}

// LineSink adapts a line-oriented func(string) callback into a Sink, one
// FormatLine line per event: powder -v prints apply and reject events
// this way. When names are given, only events with those names are
// rendered.
type LineSink struct {
	fn    func(string)
	names map[string]bool
}

// NewLineSink wraps fn; events outside names (when non-empty) are dropped.
func NewLineSink(fn func(string), names ...string) *LineSink {
	s := &LineSink{fn: fn}
	if len(names) > 0 {
		s.names = make(map[string]bool, len(names))
		for _, n := range names {
			s.names[n] = true
		}
	}
	return s
}

// Emit renders the event as one text line. A "msg" field renders verbatim
// after the name; remaining fields append as sorted key=value pairs.
func (s *LineSink) Emit(e Event) {
	if s.names != nil && !s.names[e.Name] {
		return
	}
	s.fn(FormatLine(e))
}

// FormatLine renders an event in the LineSink text format.
func FormatLine(e Event) string {
	parts := []string{e.Name}
	if msg, ok := e.Fields["msg"].(string); ok {
		parts = append(parts, msg)
	}
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		if k != "msg" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, e.Fields[k]))
	}
	return join(parts)
}

func join(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += " " + p
	}
	return out
}
