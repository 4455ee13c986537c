// Package obs is the observability layer of the POWDER pipeline: event
// sinks (JSON Lines, the powderd job hub, the flight recorder), an
// atomic metrics registry of counters and histograms, phase tables,
// the run ledger, and pprof profiling helpers. The engine emits no
// events itself: its moments are the ends of spans (package
// obs/trace), which a tracer mirrors onto a Sink.
//
// Everything is stdlib-only and nil-safe: the registry, its
// instruments and the phase and ledger types work on a nil receiver as
// cheap no-ops, so instrumented code pays ~nothing when metrics are
// disabled.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Fields carries the structured payload of one event.
type Fields map[string]any

// Event is one structured trace record.
type Event struct {
	// Time is the emission timestamp.
	Time time.Time
	// Name identifies the event kind ("span", "metrics", "job-queued",
	// ...).
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
