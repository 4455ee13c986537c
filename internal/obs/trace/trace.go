// Package trace is POWDER's hierarchical span tracer: a low-overhead
// recorder of named, attributed, parent-linked time intervals that shows
// where wall time goes inside one optimization run — harvest vs. prove
// vs. apply, per candidate, per SAT solve — and which request produced
// which work once jobs fan out across a worker pool.
//
// A Tracer owns one trace: a tree (or forest) of spans whose IDs come
// from a per-trace atomic counter, so two runs of the same workload
// produce the same IDs and tests never need wall-clock ordering. The
// tracer rides a context.Context: StartSpan reads the tracer and the
// current span off the context, allocates a child span, and returns a
// derived context carrying the new span, so instrumented layers (core,
// sat, seq, service) need no plumbing beyond passing ctx along.
//
// Everything is nil-safe in the obs tradition: a nil *Tracer, a context
// without a tracer, or a nil *Span make every operation a cheap no-op,
// so instrumented hot paths pay one context lookup when tracing is off.
// The exception is a self-time table (StartTable): spans beneath its
// root time themselves into it whether or not a tracer records them,
// which is how an optimization run gets its phase breakdown.
//
// Completed spans land in a bounded ring recorder: once full, the
// oldest-ended span is overwritten and counted as dropped. Because a
// parent always ends after its children, keeping the newest-ended spans
// preserves parent closure — every retained span's ancestors (which end
// later) are retained too, so the exported tree stays well-formed and
// the root survives any flood of leaf spans. When an obs sink is
// attached, every completed span, ended or logged, is also mirrored
// onto it as a "span" event: span ends are the engine's only events, so
// that sink is the run's event stream. Exporters render the recorded
// tree as Chrome/Perfetto trace-event JSON (see perfetto.go).
package trace

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powder/internal/obs"
)

// errZeroSpanID rejects adopted records without an ID: a 0 ID means "no
// span" everywhere else in the package and would corrupt parent links.
var errZeroSpanID = errors.New("trace: adopted span has ID 0")

// DefaultLimit is the recorder capacity (completed spans retained) when
// Options does not choose one.
const DefaultLimit = 65536

// SpanID identifies a span within its trace; 0 means "no span" (the
// parent of a root).
type SpanID int64

// Span is one live (or ended) timed interval. Create spans with
// StartSpan or Tracer.Start; a nil *Span is a no-op on every method.
//
// A span started under a table root (StartTable) adds its self time, its
// duration minus its direct children's floored at 0, to the root's table
// under its own name when it ends. Without a tracer such a span only
// times itself: it has no ID, attributes, track or record.
type Span struct {
	tracer *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	table *obs.PhaseSet
	up    *Span        // the enclosing span, when both sit under a table
	kids  atomic.Int64 // summed nanoseconds of the ended direct children

	mu    sync.Mutex
	track string
	attrs map[string]any
	ended bool
}

// ID returns the span's trace-local identifier (0 on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetTrack assigns the span to a named timeline lane within its trace.
// Tracks render as separate Perfetto threads ("trace/track"), so
// concurrent workers inside one trace appear as parallel rows instead
// of one overlapping pile. Children started via StartSpan inherit the
// current span's track. An empty track is the trace's default lane.
func (s *Span) SetTrack(track string) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	s.track = track
	s.mu.Unlock()
}

// Track returns the span's timeline lane ("" on a nil or default-lane
// span).
func (s *Span) Track() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.track
}

// SetAttr attaches one key/value attribute to the span. Safe for
// concurrent use and after End (late attributes are kept on the span
// but will not be in the already-recorded snapshot).
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End closes the span and records it. Idempotent: only the first End
// records; later calls (e.g. a deferred End after an explicit one on
// the happy path) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	track := s.track
	s.mu.Unlock()
	end := time.Now()
	if s.table != nil {
		d := end.Sub(s.start)
		s.table.Add(s.name, max(d-time.Duration(s.kids.Load()), 0))
		if s.up != nil {
			s.up.kids.Add(int64(d))
		}
	}
	s.tracer.record(s, track, attrs, end)
}

// Phases returns the self-time table rooted on s by StartTable, one row
// per span name in first-ended order (nil when s roots no table). The
// root's own row appears once it has ended.
func (s *Span) Phases() obs.Phases {
	if s == nil {
		return nil
	}
	return s.table.Snapshot()
}

// Record is the immutable, serializable form of one completed (or, in
// live introspection, still-open) span.
type Record struct {
	// Trace is the owning trace's identifier.
	Trace string `json:"trace"`
	// ID is the span's trace-local ID; Parent is 0 for roots.
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Name is the span label ("optimize", "harvest", "sat-solve", ...).
	Name string `json:"name"`
	// Track is the span's timeline lane within the trace ("" = default).
	// The Perfetto exporter renders each (trace, track) pair as its own
	// thread, so per-worker lanes of one parallel run sit side by side.
	Track string `json:"track,omitempty"`
	// Start and End bound the interval; End is the zero time on a
	// still-open span (live snapshots only).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attrs carries the span attributes (nil when none).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Seconds returns the span duration (0 for an open span).
func (r Record) Seconds() float64 {
	if r.End.IsZero() {
		return 0
	}
	return r.End.Sub(r.Start).Seconds()
}

// Options configures a Tracer.
type Options struct {
	// Limit bounds the completed-span recorder (<= 0: DefaultLimit).
	// Once full, further spans are dropped and counted — never blocking
	// and never unbounding memory, in the AsyncSink tradition.
	Limit int
	// DropCounter, when non-nil, mirrors every dropped span into a
	// metrics registry counter (conventionally "trace.dropped.spans").
	DropCounter *obs.Counter
	// Obs, when non-nil, receives each completed span, ended or logged,
	// as a "span" event (trace/span/parent/track/name/start/seconds, and
	// each attribute as attr_<key>): the run's event stream.
	Obs obs.Sink
	// Base offsets the span-ID counter: the first span gets ID Base+1.
	// Cooperating processes that contribute spans to one stitched trace
	// (client-side request spans adopted by powderd) pick disjoint bases
	// so their IDs never collide without coordination.
	Base int64
}

// Tracer owns one trace. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	id   string
	next atomic.Int64

	mu     sync.Mutex
	ring   []Record         // completed spans in end order, capacity limit
	head   int              // ring write position once len(ring) == limit
	active map[SpanID]*Span // open spans, for live introspection
	limit  int

	dropped atomic.Int64
	dropCtr *obs.Counter
	obs     obs.Sink
}

// New returns a tracer for one trace identified by id (powderd uses the
// job ID; the CLI uses the circuit name).
func New(id string, opts Options) *Tracer {
	if opts.Limit <= 0 {
		opts.Limit = DefaultLimit
	}
	t := &Tracer{
		id:      id,
		active:  make(map[SpanID]*Span),
		limit:   opts.Limit,
		dropCtr: opts.DropCounter,
		obs:     opts.Obs,
	}
	if opts.Base > 0 {
		t.next.Store(opts.Base)
	}
	return t
}

// ID returns the trace identifier ("" on a nil tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span with an explicit parent (0 for a root). Most
// callers should use StartSpan, which manages the parent through the
// context.
func (t *Tracer) Start(name string, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer: t,
		id:     SpanID(t.next.Add(1)),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	t.mu.Lock()
	t.active[s.id] = s
	t.mu.Unlock()
	return s
}

// record files an ended span.
func (t *Tracer) record(s *Span, track string, attrs map[string]any, end time.Time) {
	if t == nil {
		return
	}
	t.add(Record{
		Trace:  t.id,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Track:  track,
		Start:  s.start,
		End:    end,
		Attrs:  copyAttrs(attrs),
	})
}

// add is the one path of a completed span, ended or logged: it leaves
// the active set (a logged span was never in it), enters the ring, and
// is mirrored onto the sink.
func (t *Tracer) add(rec Record) {
	t.mu.Lock()
	delete(t.active, rec.ID)
	t.pushLocked(rec)
	t.mu.Unlock()
	if t.obs == nil {
		return
	}
	f := obs.Fields{
		"trace":   rec.Trace,
		"span":    int64(rec.ID),
		"name":    rec.Name,
		"start":   rec.Start.Format(time.RFC3339Nano),
		"seconds": rec.Seconds(),
	}
	if rec.Parent != 0 {
		f["parent"] = int64(rec.Parent)
	}
	if rec.Track != "" {
		f["track"] = rec.Track
	}
	for k, v := range rec.Attrs {
		f["attr_"+k] = v
	}
	t.obs.Emit(obs.Event{Time: rec.End, Name: "span", Fields: f})
}

// copyAttrs returns a copy of attrs (nil when empty): a record must not
// share the live span's map.
func copyAttrs(attrs map[string]any) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for k, v := range attrs {
		out[k] = v
	}
	return out
}

// pushLocked inserts one completed record into the bounded ring; the
// caller holds t.mu.
func (t *Tracer) pushLocked(rec Record) {
	if len(t.ring) < t.limit {
		t.ring = append(t.ring, rec)
		return
	}
	// Full: overwrite the oldest-ended span (a leaf; parents end
	// later) so the tree above the survivors stays intact.
	t.ring[t.head] = rec
	t.head = (t.head + 1) % t.limit
	t.dropped.Add(1)
	t.dropCtr.Inc()
}

// Log records an already-finished interval directly, without a live
// Span: the caller knows the start and end after the fact (a master
// goroutine reconstructing each worker's barrier wait once the round
// barrier clears). It allocates and returns the next span ID so logged
// spans interleave with live ones in one consistent ID order. A nil
// tracer returns 0.
func (t *Tracer) Log(name, track string, parent SpanID, start, end time.Time, attrs map[string]any) SpanID {
	if t == nil {
		return 0
	}
	rec := Record{
		Trace:  t.id,
		ID:     SpanID(t.next.Add(1)),
		Parent: parent,
		Name:   name,
		Track:  track,
		Start:  start,
		End:    end,
		Attrs:  copyAttrs(attrs),
	}
	t.add(rec)
	return rec.ID
}

// Adopt merges a span recorded by another process into this trace (the
// service adopting a client's request spans uploaded after the job).
// The record keeps its own ID — cooperating tracers use disjoint
// Options.Base ranges so adopted IDs cannot collide with local ones —
// but its Trace is rewritten to this tracer's, making the merged
// snapshot one stitched forest. Records with ID 0 are rejected. Unlike
// ended and logged spans, adopted ones are not mirrored onto the sink:
// a client uploads its spans after the job has finished, when the job's
// event stream has already closed.
func (t *Tracer) Adopt(rec Record) error {
	if t == nil {
		return nil
	}
	if rec.ID == 0 {
		return errZeroSpanID
	}
	rec.Trace = t.id
	t.mu.Lock()
	t.pushLocked(rec)
	t.mu.Unlock()
	return nil
}

// Snapshot returns the completed spans recorded so far, ordered by span
// ID (creation order), which for a single-goroutine trace is also
// depth-first tree order.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Record(nil), t.ring...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveStack returns the currently open spans as Records (End left
// zero), ordered root-first by span ID. For one goroutine's trace this
// is the live call stack; with concurrent children it is the open-span
// forest flattened in creation order.
func (t *Tracer) ActiveStack() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Record, 0, len(t.active))
	for _, s := range t.active {
		s.mu.Lock()
		rec := Record{
			Trace:  t.id,
			ID:     s.id,
			Parent: s.parent,
			Name:   s.name,
			Track:  s.track,
			Start:  s.start,
			Attrs:  copyAttrs(s.attrs),
		}
		s.mu.Unlock()
		out = append(out, rec)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Dropped returns how many completed spans were lost to the recorder
// cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Context plumbing: the tracer and the current span ride the context so
// instrumented layers correlate without explicit wiring.

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// NewContext returns ctx carrying the tracer (and no current span: the
// next StartSpan opens a root).
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the tracer carried by ctx, or nil. A nil ctx is
// allowed (some layers hold optional contexts).
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextWithSpan returns ctx with the given span current (children
// started from the returned context nest under it).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span
// (a root when there is none) and returns a derived context carrying
// it. Without a tracer on the context, and outside a table, it returns
// (ctx, nil) at the cost of two context lookups — the disabled fast
// path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t, cur := FromContext(ctx), SpanFromContext(ctx)
	inTable := cur != nil && cur.table != nil
	var s *Span
	switch {
	case t != nil:
		s = t.Start(name, cur.ID())
		s.SetTrack(cur.Track())
	case inTable:
		s = &Span{name: name, start: time.Now()}
	default:
		return ctx, nil
	}
	if inTable {
		s.table, s.up = cur.table, cur
	}
	return context.WithValue(ctx, spanKey, s), s
}

// StartTable is StartSpan for the root of a self-time table: the span
// and every span started beneath it through the context add their self
// time to the table, which Phases reads. It returns a span even without
// a tracer on the context.
func StartTable(ctx context.Context, name string) (context.Context, *Span) {
	ctx, s := StartSpan(ctx, name)
	if s == nil {
		s = &Span{name: name, start: time.Now()}
		ctx = context.WithValue(ctx, spanKey, s)
	}
	s.table = obs.NewPhaseSet()
	return ctx, s
}

// IDs returns the correlation pair carried by ctx: the trace ID and the
// current span ID ("" and 0 without a tracer). Serving layers put these
// in response headers and access logs.
func IDs(ctx context.Context) (traceID string, spanID SpanID) {
	t := FromContext(ctx)
	if t == nil {
		return "", 0
	}
	if s := SpanFromContext(ctx); s != nil {
		return t.id, s.id
	}
	return t.id, 0
}

// Sampler decides which traces are recorded: every Nth trace gets one.
// It is the hot-path guard for always-on servers — an unsampled job
// runs with a nil tracer and pays nothing. A nil *Sampler samples
// nothing; Every(1) samples everything.
type Sampler struct {
	every int64
	n     atomic.Int64
}

// Every returns a sampler selecting one trace in every n (n <= 0:
// nothing is sampled; n == 1: everything).
func Every(n int64) *Sampler {
	if n <= 0 {
		return nil
	}
	return &Sampler{every: n}
}

// Sample reports whether the next trace should be recorded. The
// decision is a deterministic counter (the 1st, n+1st, 2n+1st ... calls
// sample), not randomness, so tests and replays are stable.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return (s.n.Add(1)-1)%s.every == 0
}
