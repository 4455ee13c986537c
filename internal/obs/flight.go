package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// FlightRecorder is the always-on postmortem buffer: a fixed ring of
// the most recent observability moments — hub events, HTTP requests,
// pool panics and periodic metric deltas — kept regardless of whether
// sampling or tracing is enabled, so a crash or a hung daemon
// can always be explained from its last seconds of history. Recording
// is one mutex acquisition and a slot overwrite (no allocation beyond
// the caller's field map), cheap enough to leave on permanently.
//
// The recorder implements Sink, so it can mirror any event hub:
// powderd mirrors every job's hub into it (job lifecycle events, and
// the span ends of traced jobs), records HTTP requests, pool panics and
// counter deltas, and dumps it at GET /debug/flight and on SIGQUIT.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []FlightEntry
	head  int
	limit int
	total int64
	last  map[string]int64 // previous counter values for SampleMetrics
}

// FlightEntry is one recorded moment.
type FlightEntry struct {
	Time time.Time `json:"time"`
	// Kind classifies the entry: "event" (hub event), "http" (served
	// request), "metric" (counter deltas since the previous sample) or
	// "panic" (recovered pool task). Completed spans arrive only as
	// "span" hub events, of kind "event".
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Fields Fields `json:"fields,omitempty"`
}

// DefaultFlightLimit is the ring capacity of the process-wide recorder.
const DefaultFlightLimit = 4096

// flight is the process-wide recorder handed out by Flight.
var flight = NewFlightRecorder(DefaultFlightLimit)

// Flight returns the process-wide flight recorder. It is always live;
// binaries that never dump it pay only the recording cost.
func Flight() *FlightRecorder { return flight }

// NewFlightRecorder returns a recorder bounded to limit entries (<= 0
// chooses DefaultFlightLimit).
func NewFlightRecorder(limit int) *FlightRecorder {
	if limit <= 0 {
		limit = DefaultFlightLimit
	}
	return &FlightRecorder{limit: limit, last: make(map[string]int64)}
}

// Record adds one entry, overwriting the oldest when full. A nil
// recorder is a no-op.
func (f *FlightRecorder) Record(kind, name string, fields Fields) {
	f.insert(FlightEntry{Time: time.Now(), Kind: kind, Name: name, Fields: fields})
}

// Emit implements Sink: hub events mirror into the ring as "event"
// entries.
func (f *FlightRecorder) Emit(e Event) {
	f.insert(FlightEntry{Time: e.Time, Kind: "event", Name: e.Name, Fields: e.Fields})
}

// insert is the one ring insert behind Record and Emit.
func (f *FlightRecorder) insert(e FlightEntry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.ring) < f.limit {
		f.ring = append(f.ring, e)
	} else {
		f.ring[f.head] = e
		f.head = (f.head + 1) % f.limit
	}
	f.total++
	f.mu.Unlock()
}

// SampleMetrics records the counter deltas since the previous sample as
// one "metric" entry (skipped when nothing moved). powderd runs this on
// a ticker and before every dump, so the ring carries a coarse rate
// history next to the discrete events.
func (f *FlightRecorder) SampleMetrics(r *Registry) {
	if f == nil || r == nil {
		return
	}
	snap := r.Snapshot()
	f.mu.Lock()
	deltas := make(Fields)
	for name, v := range snap.Counters {
		if d := v - f.last[name]; d != 0 {
			deltas[name] = d
		}
		f.last[name] = v
	}
	f.mu.Unlock()
	if len(deltas) > 0 {
		f.Record("metric", "counter-deltas", deltas)
	}
}

// Snapshot returns the retained entries oldest-first, plus how many
// entries were recorded in total (total - len(entries) were
// overwritten).
func (f *FlightRecorder) Snapshot() (entries []FlightEntry, total int64) {
	if f == nil {
		return nil, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	entries = make([]FlightEntry, 0, len(f.ring))
	entries = append(entries, f.ring[f.head:]...)
	entries = append(entries, f.ring[:f.head]...)
	return entries, f.total
}

// FlightDump is the serialized form of a recorder snapshot.
type FlightDump struct {
	Now     time.Time     `json:"now"`
	Total   int64         `json:"total"`
	Entries []FlightEntry `json:"entries"`
}

// WriteJSON dumps the snapshot as one JSON document (the /debug/flight
// response body).
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	entries, total := f.Snapshot()
	if entries == nil {
		entries = []FlightEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(FlightDump{Now: time.Now(), Total: total, Entries: entries})
}

// WriteText dumps the snapshot as aligned lines, oldest first (the
// panic/SIGQUIT stderr format).
func (f *FlightRecorder) WriteText(w io.Writer) {
	entries, total := f.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d retained of %d recorded\n", len(entries), total)
	for _, e := range entries {
		fmt.Fprintf(w, "%s %-6s %s", e.Time.Format(time.RFC3339Nano), e.Kind, e.Name)
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%v", k, e.Fields[k])
		}
		fmt.Fprintln(w)
	}
}
