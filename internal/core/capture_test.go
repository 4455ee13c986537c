package core

import (
	"context"
	"sync"

	"powder/internal/obs"
	"powder/internal/obs/trace"
)

// captureSink records every emitted event in memory, for tests that
// assert on the span ends a run streams (rollbacks, escalations,
// candidate outcomes) without going through a serialization sink.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

// Emit records the event.
func (c *captureSink) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a snapshot of the captured events in emission order.
func (c *captureSink) Events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// Spans returns the fields of the captured span events named name, in
// end order.
func (c *captureSink) Spans(name string) []obs.Fields {
	var out []obs.Fields
	for _, e := range c.Events() {
		if e.Name == "span" && e.Fields["name"] == name {
			out = append(out, e.Fields)
		}
	}
	return out
}

// traced returns ctx carrying a tracer whose span ends stream into c.
func (c *captureSink) traced(ctx context.Context) context.Context {
	return trace.NewContext(ctx, trace.New("test", trace.Options{Obs: c}))
}
